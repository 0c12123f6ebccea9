(* The always-on flight recorder and its trap postmortems: ring
   mechanics, byte-deterministic postmortem JSON, and the
   fence-provenance ledger the postmortem embeds.  The parity tests
   check that recording is behaviour-invisible: with the recorder off,
   every deterministic oracle cell keeps its state, cycles and stats on
   example, fault-corpus and looped programs. *)

module I = X86.Insn
module R = X86.Reg
module Fl = Obs.Flight
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let build = Oracle.build

(* Restore the global recording switch no matter how a test exits:
   every other suite in this binary assumes the production default. *)
let with_flight_off f =
  Fl.disable ();
  Fun.protect ~finally:(fun () -> Fl.enable ()) f

(* ------------------------------------------------------------------ *)
(* Ring mechanics                                                      *)

let test_ring_basics () =
  let r = Fl.create ~capacity:10 () in
  check_int "capacity rounds up to a power of two" 16 (Fl.capacity r);
  for i = 0 to 4 do
    Fl.record r Fl.Block_enter (Int64.of_int i) i
  done;
  check_int "recorded counts everything" 5 (Fl.recorded r);
  let evs = Fl.events r in
  check_int "all retained below capacity" 5 (List.length evs);
  check_bool "oldest first" true
    (List.map (fun (e : Fl.event) -> e.Fl.pc) evs
    = [ 0L; 1L; 2L; 3L; 4L ]);
  check_bool "sequence numbers dense from zero" true
    (List.map (fun (e : Fl.event) -> e.Fl.seq) evs = [ 0; 1; 2; 3; 4 ])

let test_ring_overwrites () =
  let r = Fl.create ~capacity:16 () in
  for i = 0 to 39 do
    Fl.record r Fl.Tier_published (Int64.of_int i) i
  done;
  check_int "recorded counts beyond capacity" 40 (Fl.recorded r);
  let evs = Fl.events r in
  check_int "ring keeps only the last capacity events" 16 (List.length evs);
  check_bool "oldest retained is recorded - capacity" true
    (match evs with e :: _ -> e.Fl.seq = 24 | [] -> false);
  check_bool "newest retained is the last record" true
    (match List.rev evs with e :: _ -> e.Fl.seq = 39 | [] -> false);
  let last4 = Fl.last ~n:4 r in
  check_bool "last ~n trims from the old end" true
    (List.map (fun (e : Fl.event) -> e.Fl.seq) last4 = [ 36; 37; 38; 39 ]);
  Fl.reset r;
  check_int "reset empties the ring" 0 (List.length (Fl.events r))

let test_ring_gated_by_global_switch () =
  let r = Fl.create () in
  with_flight_off (fun () ->
      Fl.record r Fl.Trap 0x1000L 0;
      check_int "disabled record is a no-op" 0 (Fl.recorded r));
  Fl.record r Fl.Trap 0x1000L 0;
  check_int "re-enabled record lands" 1 (Fl.recorded r)

(* ------------------------------------------------------------------ *)
(* Postmortems                                                         *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn > 0 && go 0

let trap_config =
  {
    Core.Config.risotto with
    Core.Config.inject = [ Core.Inject.Always Core.Inject.Decode ];
  }

let postmortem_string () =
  let eng = Core.Engine.create trap_config (build Oracle.countdown) in
  let g = Core.Engine.run eng in
  check_bool "injected decode fault traps" true
    (Core.Engine.trap g <> None);
  Report.Json.to_string (Core.Engine.postmortem_json eng ~reason:"test")

let test_postmortem_deterministic () =
  let a = postmortem_string () in
  let b = postmortem_string () in
  check_bool "two identical runs, byte-identical postmortems" true (a = b);
  check_bool "schema stamped" true
    (contains a {|"schema":"risotto.postmortem.v1"|});
  check_bool "trapping thread's ring includes the trap event" true
    (contains a {|"kind":"trap"|});
  check_bool "fence ledgers embedded" true (contains a {|"fence_ledgers"|})

let test_postmortem_deterministic_with_metrics () =
  (* Wall-clock histograms and .ns/.us gauges are excluded from the
     dump, so even a metrics-on postmortem is byte-stable (after a
     registry reset, since counters are process-cumulative). *)
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.disable ())
    (fun () ->
      Obs.Metrics.reset ();
      let a = postmortem_string () in
      Obs.Metrics.reset ();
      let b = postmortem_string () in
      check_bool "metrics-on postmortems byte-identical" true (a = b);
      check_bool "metrics slice present" true (contains a {|"counters"|});
      check_bool "wall-clock histograms excluded" true
        (not (contains a "request_to_publish")))

let test_postmortem_dumped_on_trap () =
  let dir = Filename.temp_file "risotto_flight" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      let eng = Core.Engine.create trap_config (build Oracle.countdown) in
      Core.Engine.set_postmortem_dir eng (Some dir);
      let _ = Core.Engine.run eng in
      check_int "one postmortem written" 1
        (Core.Engine.postmortems_written eng);
      let path = Filename.concat dir "postmortem-000.json" in
      check_bool "artifact exists" true (Sys.file_exists path);
      let ic = open_in_bin path in
      let body =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_bool "artifact carries the trap reason" true
        (contains body {|"reason":"trap:|}))

let test_watchdog_dumps_postmortem () =
  let dir = Filename.temp_file "risotto_flight" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      let image = build [ Label "main"; Jmp_lbl "main" ] in
      let eng = Core.Engine.create Core.Config.risotto image in
      Core.Engine.set_postmortem_dir eng (Some dir);
      let g = Core.Engine.spawn eng ~tid:0 ~entry:image.Image.Gelf.entry () in
      (match Core.Engine.run_concurrent ~max_blocks:10 eng [ g ] with
      | Core.Engine.Exhausted _ -> ()
      | Core.Engine.Completed _ -> Alcotest.fail "spin loop cannot complete");
      check_int "exhaustion dumped a postmortem" 1
        (Core.Engine.postmortems_written eng);
      check_bool "watchdog event recorded in the thread ring" true
        (List.exists
           (fun (e : Fl.event) -> e.Fl.kind = Fl.Watchdog)
           (Fl.events (Core.Engine.thread_flight g))))

(* Tier states are sorted by pc as a number, not as its hex string:
   blocks at 0xfff and 0x1000 (loaded from a hand-framed RSTC2 cache)
   must come out in that order. *)
let test_postmortem_tiers_in_pc_order () =
  let path = Filename.temp_file "risotto_flight" ".rstc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let config = Core.Config.risotto in
  let b = Buffer.create 64 in
  Buffer.add_string b "RSTC2\n";
  Buffer.add_char b (Char.chr (String.length config.Core.Config.name));
  Buffer.add_string b config.Core.Config.name;
  Buffer.add_string b "00000002";
  List.iter
    (fun pc ->
      let body = Arm.Encode.block_to_string [| Arm.Insn.Exit_halt |] in
      Buffer.add_string b (Printf.sprintf "%016Lx%08d" pc (String.length body));
      Buffer.add_string b (Checksum.Crc32.to_hex (Checksum.Crc32.digest body));
      Buffer.add_string b body)
    [ 0x1000L; 0xfffL ];
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
  let eng = Core.Engine.create config (build Oracle.countdown) in
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_int "both entries loaded" 2 n
  | Error f -> Alcotest.fail (Core.Fault.to_string f));
  let pcs =
    let pm = Core.Engine.postmortem_json eng ~reason:"test" in
    match Report.Json.member "tiers" pm with
    | Some (Report.Json.List tiers) ->
        List.map
          (fun tier ->
            match Report.Json.member "pc" tier with
            | Some (Report.Json.String pc) -> pc
            | _ -> Alcotest.fail "tier entry without a pc")
          tiers
    | _ -> Alcotest.fail "postmortem without tiers"
  in
  Alcotest.(check (list string)) "numeric pc order" [ "0xfff"; "0x1000" ] pcs

(* ------------------------------------------------------------------ *)
(* Fence provenance                                                    *)

let test_fence_ledger_records_merges () =
  (* Back-to-back MFENCEs: the frontend emits two F_sc fences with
     mfence origins; Fence_merge keeps one and absorbs the other. *)
  let items =
    [
      Label "main";
      Ins (I.Store ({ I.base = None; index = None; disp = 0x5000L }, I.I 1L));
      Ins I.Mfence;
      Ins I.Mfence;
      Ins (I.Load (R.RAX, { I.base = None; index = None; disp = 0x5000L }));
      Ins I.Hlt;
    ]
  in
  let eng = Core.Engine.create Core.Config.risotto (build items) in
  let _ = Core.Engine.run eng in
  let ledgers = Core.Engine.fence_ledgers eng in
  check_bool "at least one block translated with a ledger" true
    (ledgers <> []);
  let total name =
    List.fold_left
      (fun acc (_, l) -> acc + Tcg.Fence_ledger.count l name)
      0 ledgers
  in
  check_bool "fences emitted" true (total "emitted" >= 2);
  check_bool "a fence was merged away" true (total "merged" >= 1);
  check_bool "survivors are kept" true (total "kept" >= 1);
  (* Provenance survives into the entries: the absorbed fence names the
     mfence origin it came from. *)
  let merged_entries =
    List.concat_map
      (fun (_, l) ->
        List.filter
          (fun (e : Tcg.Fence_ledger.entry) ->
            match e.Tcg.Fence_ledger.outcome with
            | Tcg.Fence_ledger.Merged _ -> true
            | _ -> false)
          (Tcg.Fence_ledger.entries l))
      ledgers
  in
  check_bool "merged entry carries its guest origin" true
    (List.exists
       (fun (e : Tcg.Fence_ledger.entry) ->
         e.Tcg.Fence_ledger.origin.Tcg.Op.rule = Tcg.Op.R_mfence)
       merged_entries)

let test_fence_metrics_counters () =
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.disable ())
    (fun () ->
      Obs.Metrics.reset ();
      let items =
        [
          Label "main";
          Ins I.Mfence;
          Ins I.Mfence;
          Ins (I.Mov_ri (R.R13, 1L));
          Ins I.Hlt;
        ]
      in
      let eng = Core.Engine.create Core.Config.risotto (build items) in
      let _ = Core.Engine.run eng in
      let snap = Obs.Metrics.snapshot () in
      let fences = Obs.Metrics.counters_with_prefix snap "fence." in
      check_bool "fence.* counters populated" true (fences <> []);
      let total suffix =
        List.fold_left
          (fun acc (name, v) ->
            if Filename.check_suffix name suffix then acc + v else acc)
          0 fences
      in
      check_bool "emitted counted" true (total ".emitted" >= 2);
      check_bool "merged counted" true (total ".merged" >= 1))

(* A ledger describes one translation: [reset] drops every block, and a
   block loaded from the persistent cache has no ledger, so neither may
   leave the old translation's ledger behind. *)
let test_fence_ledger_invalidation () =
  let image = build Oracle.countdown in
  let pc = image.Image.Gelf.entry in
  let eng = Core.Engine.create Core.Config.risotto image in
  ignore (Core.Engine.run eng);
  check_bool "translated block has a ledger" true
    (Core.Engine.fence_ledger eng pc <> None);
  Core.Engine.reset eng;
  check_bool "reset drops the ledger" true
    (Core.Engine.fence_ledger eng pc = None);
  check_bool "reset drops every ledger" true
    (Core.Engine.fence_ledgers eng = []);
  ignore (Core.Engine.run eng);
  let path = Filename.temp_file "risotto_flight" ".rstc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (Core.Engine.save_cache eng path);
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_bool "blocks loaded" true (n > 0)
  | Error f -> Alcotest.fail (Core.Fault.to_string f));
  check_bool "a loaded block has no ledger" true
    (Core.Engine.fence_ledger eng pc = None)

(* ------------------------------------------------------------------ *)
(* Parity: recorder on = recorder off                                  *)

let test_parity_examples () =
  Oracle.on_examples (fun config image _ ->
      Oracle.check_toggle Oracle.Recorder_off config image)

let test_parity_fault_corpus () =
  Oracle.on_fault_corpus (fun config image _ ->
      Oracle.check_toggle Oracle.Recorder_off config image)

(* Looped programs wrap the per-thread rings; fault-free and under one
   drawn fault plan, under every preset. *)
let parity_prop =
  Oracle.property ~name:"recorder on = recorder off (looped programs)"
    ~count:30
    (QCheck.pair (Oracle.arb_shape Oracle.Looped) Oracle.arb_plan)
    (Oracle.on_presets (fun config plan image _ ->
         Oracle.check_toggle Oracle.Recorder_off config image;
         Oracle.check_toggle Oracle.Recorder_off (Oracle.under plan config)
           image))

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basics;
          Alcotest.test_case "overwrite and last" `Quick test_ring_overwrites;
          Alcotest.test_case "global switch gates records" `Quick
            test_ring_gated_by_global_switch;
        ] );
      ( "parity",
        [
          Alcotest.test_case "examples" `Quick test_parity_examples;
          Alcotest.test_case "fault corpus" `Quick test_parity_fault_corpus;
          QCheck_alcotest.to_alcotest parity_prop;
        ] );
      ( "postmortem",
        [
          Alcotest.test_case "byte-deterministic" `Quick
            test_postmortem_deterministic;
          Alcotest.test_case "byte-deterministic with metrics" `Quick
            test_postmortem_deterministic_with_metrics;
          Alcotest.test_case "dumped on trap" `Quick
            test_postmortem_dumped_on_trap;
          Alcotest.test_case "dumped on watchdog exhaustion" `Quick
            test_watchdog_dumps_postmortem;
          Alcotest.test_case "tier states in numeric pc order" `Quick
            test_postmortem_tiers_in_pc_order;
        ] );
      ( "fence provenance",
        [
          Alcotest.test_case "ledger records merges" `Quick
            test_fence_ledger_records_merges;
          Alcotest.test_case "metrics counters" `Quick
            test_fence_metrics_counters;
          Alcotest.test_case "reset and load_cache drop stale ledgers" `Quick
            test_fence_ledger_invalidation;
        ] );
    ]
