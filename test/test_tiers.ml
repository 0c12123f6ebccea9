(* The tier ladder: interp-first execution (tier 0), threshold-triggered
   baseline compiles — inline or on a background domain — (tier 1), and
   profile-guided superblock promotion with deoptimization (tier 2).
   The parity tests run the oracle's tier0-only, tiered-sync and
   tiered-async cells on the example and fault-plan corpora, and its
   whole matrix on looped programs, where blocks run often enough to
   climb the ladder: none of it is observable in guest results.  The
   rest of the suite proves each tier actually engages, traps stay isolated, and
   reset / load_cache discard queued installs and retrain from
   scratch. *)

module I = X86.Insn
module R = X86.Reg
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

let build = Oracle.build

let run_config config image =
  let eng = Core.Engine.create config image in
  let g = Core.Engine.run eng in
  (* Settle background installs before reading any stats; a no-op for
     the synchronous variants. *)
  Core.Engine.drain_installs eng;
  (g, eng)

(* ------------------------------------------------------------------ *)
(* Parity: the oracle's tier cells                                     *)

let test_examples () =
  Oracle.on_examples (fun config image reference ->
      ignore (Oracle.check_reference Oracle.tier_cells config image reference))

let test_fault_corpus () =
  Oracle.on_fault_corpus (Oracle.check_fault Oracle.tier_cells)

(* Every engine cell on looped programs, each also run under one drawn
   fault plan; straight-line and straddling programs are test_core's. *)
let looped_prop =
  Oracle.property ~name:"tier ladder = tier0-only (looped programs)"
    ~count:60
    (QCheck.pair (Oracle.arb_shape Oracle.Looped) Oracle.arb_plan)
    (Oracle.on_presets Oracle.check_matrix)

(* [jit_threshold = 0] is the ladder with the compile requested at
   translation, so it must agree with [jit_threshold = 1] under
   [sync_compile] on guest state, cycles and the tier counts: every
   published TB counted once, and only a block whose compile failed
   ever runs on the interpreter. *)
let check_one_path config image _ =
  let eager = Oracle.run config image in
  let first_exec =
    Oracle.run
      { config with Core.Config.jit_threshold = 1; sync_compile = true }
      image
  in
  let at = Oracle.label config "jit_threshold 0 vs 1" in
  if eager.Oracle.state <> first_exec.Oracle.state then
    Alcotest.failf "%s: guest state differs (%s)" at
      (Oracle.diff eager.Oracle.state first_exec.Oracle.state);
  check_int (at ^ ": cycles") eager.Oracle.cycles first_exec.Oracle.cycles;
  List.iter
    (fun (name, count) ->
      check_int (at ^ ": " ^ name)
        (count eager.Oracle.stats)
        (count first_exec.Oracle.stats))
    [
      ("fences_emitted", fun s -> s.Core.Engine.fences_emitted);
      ("tier1_installed", fun s -> s.Core.Engine.tier1_installed);
      ("interp_fallbacks", fun s -> s.Core.Engine.interp_fallbacks);
      ("interp_execs", fun s -> s.Core.Engine.interp_execs);
    ];
  let st = eager.Oracle.stats in
  if st.Core.Engine.interp_fallbacks = 0 then
    check_int (at ^ ": no interpreted dispatch") 0 st.Core.Engine.interp_execs;
  check_int (at ^ ": every translated block published or degraded")
    st.Core.Engine.blocks_translated
    (st.Core.Engine.tier1_installed + st.Core.Engine.interp_fallbacks)

let test_one_path_examples () = Oracle.on_examples check_one_path
let test_one_path_fault_corpus () = Oracle.on_fault_corpus check_one_path

(* ------------------------------------------------------------------ *)
(* Engagement: every tier visibly fires and is reported                *)

let test_tiers_engage_sync () =
  let image = build Oracle.countdown in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 4;
    }
  in
  let g, eng = run_config config image in
  let st = Core.Engine.stats eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_bool "tier-0 interp execs" true (st.Core.Engine.interp_execs > 0);
  check_bool "tier-1 installs" true (st.Core.Engine.tier1_installed >= 1);
  check_bool "tier-2 superblocks" true (st.Core.Engine.superblocks >= 1);
  check_int "nothing dropped" 0 st.Core.Engine.installs_dropped;
  let contains line needle =
    let n = String.length needle and l = String.length line in
    let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  let line = Core.Engine.stats_line eng g in
  check_bool "stats line reports tiers" true
    (List.for_all (contains line)
       [ "interp-execs="; "tier1-installed="; "deopts=" ]);
  (* The install-queue fields are zero-suppressed: present exactly when
     the corresponding counter is non-zero.  This run dropped nothing
     (checked above), so installs-dropped must be absent, not "=0". *)
  check_bool "installs-dropped suppressed at zero" false
    (contains line "installs-dropped=");
  check_bool "install-hwm tracks its counter" true
    (contains line "install-hwm=" = (st.Core.Engine.install_hwm > 0))

let test_tiers_engage_async () =
  (* Drive the loop manually, draining the background service between
     dispatches: install timing becomes deterministic, so the block is
     published mid-run, retrains its branch profile and promotes to a
     superblock — all off the background domain. *)
  let image = build Oracle.countdown in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 6;
      sync_compile = false;
    }
  in
  let svc = Parallel.Pool.service_create ~workers:1 () in
  let eng = Core.Engine.create ~install_service:svc config image in
  let th =
    Core.Engine.spawn eng ~tid:0 ~entry:image.Image.Gelf.entry ()
  in
  let steps = ref 0 in
  while (not th.Core.Engine.finished) && !steps < 2000 do
    Core.Engine.step_block eng th;
    Core.Engine.drain_installs eng;
    incr steps
  done;
  check_bool "finished" true th.Core.Engine.finished;
  check_bool "no trap" true (th.Core.Engine.trap = None);
  let st = Core.Engine.stats eng in
  check_bool "tier-0 interp execs" true (st.Core.Engine.interp_execs > 0);
  check_bool "tier-1 installs (async)" true (st.Core.Engine.tier1_installed >= 1);
  check_bool "tier-2 superblocks (async)" true (st.Core.Engine.superblocks >= 1);
  check_bool "queue high-water tracked" true (st.Core.Engine.install_hwm >= 1);
  check_i64 "countdown result" 325L (Core.Engine.reg th R.RDX);
  Parallel.Pool.service_shutdown svc

let test_trap_mid_ladder_isolated () =
  (* Two threads share a hot loop riding the full async ladder, then
     jump to per-thread continuations; the bad one is undecodable and
     must trap alone. *)
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 12L));
      Label "loop";
      Ins (I.Alu (I.Add, R.RDX, I.R R.RBX));
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins (I.Push R.R8);
      Ins I.Ret;
      Label "good_end";
      Ins I.Hlt;
    ]
  in
  let image = build items in
  let good_end = List.assoc "good_end" image.Image.Gelf.symbols in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 4;
      sync_compile = false;
    }
  in
  let eng = Core.Engine.create config image in
  let entry = image.Image.Gelf.entry in
  let good =
    Core.Engine.spawn eng ~tid:0 ~entry ~regs:[ (R.R8, good_end) ] ()
  in
  let bad =
    Core.Engine.spawn eng ~tid:1 ~entry ~regs:[ (R.R8, 0xDEAD000L) ] ()
  in
  (match Core.Engine.run_concurrent eng [ good; bad ] with
  | Core.Engine.Completed _ -> ()
  | Core.Engine.Exhausted _ -> Alcotest.fail "watchdog fired");
  Core.Engine.drain_installs eng;
  check_bool "good thread clean" true (good.Core.Engine.trap = None);
  check_i64 "good thread result" 78L (Core.Engine.reg good R.RDX);
  check_bool "bad thread trapped" true (bad.Core.Engine.trap <> None);
  check_i64 "bad thread got through the loop" 78L (Core.Engine.reg bad R.RDX);
  check_int "exactly one trap" 1 (Core.Engine.stats eng).Core.Engine.traps

(* ------------------------------------------------------------------ *)
(* Invalidation: reset and load_cache against in-flight installs       *)

let test_reset_drops_inflight_installs () =
  (* Block the (private) background worker, run a whole tiered program
     — every compile job queues behind the blocker — then reset and
     release.  The late results carry the pre-reset generation and must
     be discarded, not published into the flushed chain table. *)
  let image = build Oracle.countdown in
  let svc = Parallel.Pool.service_create ~workers:1 () in
  let sem = Semaphore.Binary.make false in
  Parallel.Pool.service_submit svc (fun () -> Semaphore.Binary.acquire sem);
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 1;
      trace_threshold = 0;
      sync_compile = false;
    }
  in
  let eng = Core.Engine.create ~install_service:svc config image in
  let g1 = Core.Engine.run eng in
  check_bool "blocked run clean (all interp)" true (g1.Core.Engine.trap = None);
  check_bool "compiles queued behind blocker" true
    (Parallel.Pool.service_pending svc >= 2);
  check_int "nothing installed while blocked" 0
    (Core.Engine.stats eng).Core.Engine.tier1_installed;
  let gen0 = Core.Engine.chain_generation eng in
  Core.Engine.reset eng;
  check_bool "generation bumped" true (Core.Engine.chain_generation eng > gen0);
  Semaphore.Binary.release sem;
  Core.Engine.drain_installs eng;
  let st = Core.Engine.stats eng in
  check_bool "stale installs dropped" true (st.Core.Engine.installs_dropped >= 1);
  check_int "still nothing installed" 0 st.Core.Engine.tier1_installed;
  (* The reset engine retrains from scratch and converges to the same
     guest state. *)
  let g2 = Core.Engine.spawn eng ~tid:3 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  Core.Engine.drain_installs eng;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result after reset" (Core.Engine.reg g1 R.RDX)
    (Core.Engine.reg g2 R.RDX);
  Parallel.Pool.service_shutdown svc

let test_reset_clears_tier_profile () =
  let image = build Oracle.countdown in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 4;
    }
  in
  let eng = Core.Engine.create config image in
  let g1 = Core.Engine.run eng in
  let st = Core.Engine.stats eng in
  check_bool "trained" true
    (st.Core.Engine.tier1_installed >= 1 && st.Core.Engine.superblocks >= 1);
  let supers_before = st.Core.Engine.superblocks in
  Core.Engine.reset eng;
  check_bool "profile gone with the nodes" true (Core.Engine.hot_blocks eng = []);
  let g2 = Core.Engine.spawn eng ~tid:5 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result" (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX);
  check_bool "ladder retrained after reset" true
    ((Core.Engine.stats eng).Core.Engine.superblocks > supers_before)

let test_load_cache_resets_tier_profile () =
  let path = Filename.temp_file "risotto_tiers" ".rstc" in
  let image = build Oracle.countdown in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 4;
    }
  in
  let eng = Core.Engine.create config image in
  let g1 = Core.Engine.run eng in
  check_bool "hot run clean" true (g1.Core.Engine.trap = None);
  let supers_before = (Core.Engine.stats eng).Core.Engine.superblocks in
  check_bool "superblock trained" true (supers_before >= 1);
  ignore (Core.Engine.save_cache eng path);
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_bool "loaded blocks" true (n > 0)
  | Error f -> Alcotest.fail (Core.Fault.to_string f));
  (* clear_links zeroed every execution counter and tier profile: a
     resumed run must not promote on pre-reload training. *)
  check_bool "profile reset by reload" true (Core.Engine.hot_blocks eng = []);
  let g2 = Core.Engine.spawn eng ~tid:7 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result" (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX);
  check_bool "superblock re-forms from fresh profile" true
    ((Core.Engine.stats eng).Core.Engine.superblocks > supers_before);
  Sys.remove path

let () =
  Alcotest.run "tiers"
    [
      ( "parity",
        [
          Alcotest.test_case "ladder = tier0-only on example programs" `Quick
            test_examples;
          Alcotest.test_case "parity under fault injection" `Quick
            test_fault_corpus;
          QCheck_alcotest.to_alcotest looped_prop;
        ] );
      ( "one path",
        [
          Alcotest.test_case "jit_threshold 0 = 1 on example programs" `Quick
            test_one_path_examples;
          Alcotest.test_case "jit_threshold 0 = 1 under fault injection"
            `Quick test_one_path_fault_corpus;
        ] );
      ( "engagement",
        [
          Alcotest.test_case "sync ladder: all tiers fire and report" `Quick
            test_tiers_engage_sync;
          Alcotest.test_case "async ladder: background installs publish" `Quick
            test_tiers_engage_async;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "trap isolated across the async ladder" `Quick
            test_trap_mid_ladder_isolated;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "reset drops in-flight installs" `Quick
            test_reset_drops_inflight_installs;
          Alcotest.test_case "reset clears the tier profile" `Quick
            test_reset_clears_tier_profile;
          Alcotest.test_case "load_cache resets the tier profile" `Quick
            test_load_cache_resets_tier_profile;
        ] );
    ]
