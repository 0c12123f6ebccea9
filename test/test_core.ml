(* The DBT engine end-to-end: frontend mapping schemes, backend
   lowering, the block cache, syscalls, guest threads, PLT interception
   and the persistent cache, and the oracle's differential property:
   every engine cell of every configuration against the x86 reference
   interpreter. *)

module I = X86.Insn
module R = X86.Reg
module Op = Tcg.Op
module E = Axiom.Event
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

let build = Oracle.build

let run_config config image =
  let eng = Core.Engine.create config image in
  let g = Core.Engine.run eng in
  (g, eng)

(* ------------------------------------------------------------------ *)
(* Frontend                                                            *)

let translate config items =
  let image = build items in
  let fe =
    Core.Frontend.create config image
      (Linker.Link.resolve image (Linker.Idl.parse Linker.Hostlib.idl_text))
  in
  Core.Frontend.translate fe image.Image.Gelf.entry

let count_fence_kind k ops =
  List.length
    (List.filter (function Op.Mb (f, _) -> f = k | _ -> false) ops)

let load_store_items =
  [
    Label "main";
    Ins (I.Load (R.RAX, { I.base = None; index = None; disp = 0x5000L }));
    Ins (I.Store ({ I.base = None; index = None; disp = 0x5008L }, I.R R.RAX));
    Ins I.Hlt;
  ]

let test_frontend_risotto_fences () =
  (* Figure 7a: ld; Frm and Fww; st. *)
  let b = translate Core.Config.tcg_ver load_store_items in
  let optimized = Tcg.Pipeline.run Core.Config.tcg_ver.Core.Config.passes b in
  (* After fence merging, Frm·Fww merges into one Fmm. *)
  check_int "fences merged" 1 (Tcg.Fenceopt.count optimized.Tcg.Block.ops);
  let raw =
    translate { Core.Config.tcg_ver with passes = [] } load_store_items
  in
  check_int "one Frm" 1 (count_fence_kind E.F_rm raw.Tcg.Block.ops);
  check_int "one Fww" 1 (count_fence_kind E.F_ww raw.Tcg.Block.ops)

let test_frontend_qemu_fences () =
  (* Figure 2: Fmr; ld and Fmw; st — never mergeable (leading fences
     are separated by the accesses). *)
  let raw = translate { Core.Config.qemu with passes = [] } load_store_items in
  check_int "one Fmr" 1 (count_fence_kind E.F_mr raw.Tcg.Block.ops);
  check_int "one Fmw" 1 (count_fence_kind E.F_mw raw.Tcg.Block.ops)

let test_frontend_no_fences () =
  let raw =
    translate { Core.Config.no_fences with passes = [] } load_store_items
  in
  check_int "no fences" 0 (Tcg.Fenceopt.count raw.Tcg.Block.ops)

let test_frontend_block_cap () =
  let many = List.init 40 (fun _ -> Ins I.Nop) in
  let b =
    translate Core.Config.qemu ((Label "main" :: many) @ [ Ins I.Hlt ])
  in
  check_int "block capped" Core.Frontend.max_block_insns b.Tcg.Block.guest_insns

let test_frontend_mfence () =
  let items = [ Label "main"; Ins I.Mfence; Ins I.Hlt ] in
  let raw = translate { Core.Config.qemu with passes = [] } items in
  check_int "mfence -> Fsc" 1 (count_fence_kind E.F_sc raw.Tcg.Block.ops);
  let nf = translate { Core.Config.no_fences with passes = [] } items in
  check_int "no-fences drops mfence" 0 (Tcg.Fenceopt.count nf.Tcg.Block.ops)

(* ------------------------------------------------------------------ *)
(* Backend                                                             *)

let test_backend_cas_lowering () =
  let cas_items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RAX, 0L));
      Ins (I.Mov_ri (R.RCX, 1L));
      Ins (I.Lock_cmpxchg ({ I.base = None; index = None; disp = 0x5000L }, R.RCX));
      Ins I.Hlt;
    ]
  in
  let compile config =
    let image = build cas_items in
    let eng = Core.Engine.create config image in
    Core.Engine.lookup_block eng image.Image.Gelf.entry
  in
  let has p code = Array.exists p code in
  let casal = compile Core.Config.risotto in
  check_bool "casal emitted" true
    (has (function Arm.Insn.Cas { acq = true; rel = true; _ } -> true | _ -> false) casal);
  let rmw2 =
    compile { Core.Config.risotto with rmw = Core.Config.Native_rmw2 }
  in
  check_bool "exclusives emitted" true
    (has (function Arm.Insn.Ldxr _ -> true | _ -> false) rmw2);
  check_bool "DMBFF brackets" true
    (Array.length
       (Array.of_list
          (List.filter
             (function Arm.Insn.Dmb Arm.Insn.Full -> true | _ -> false)
             (Array.to_list rmw2)))
    >= 2);
  let helper = compile Core.Config.qemu in
  check_bool "helper path" true
    (has
       (function
         | Arm.Insn.Blr_helper ("helper_cmpxchg_gcc10", _, _) -> true
         | _ -> false)
       helper)

let test_backend_register_pressure_ok () =
  (* A long block with many temps must allocate within the pool. *)
  let many_loads =
    List.init 30 (fun k ->
        Ins (I.Load (R.of_index (k mod 8), { I.base = None; index = None; disp = Int64.of_int (0x5000 + (8 * k)) })))
  in
  let image = build ((Label "main" :: many_loads) @ [ Ins I.Hlt ]) in
  let eng = Core.Engine.create Core.Config.risotto image in
  let code = Core.Engine.lookup_block eng image.Image.Gelf.entry in
  check_bool "compiled" true (Array.length code > 0)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_block_cache () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 5L));
      Label "loop";
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]
  in
  let _, eng = run_config Core.Config.qemu (build items) in
  let st = Core.Engine.stats eng in
  check_bool "few translations" true (st.Core.Engine.blocks_translated <= 3);
  check_bool "cache hits on loop" true (st.Core.Engine.cache_hits >= 3)

let test_exit_code_via_syscall () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RAX, 60L));
      Ins (I.Mov_ri (R.RDI, 17L));
      Ins I.Syscall;
      Ins I.Nop;
    ]
  in
  let g, _ = run_config Core.Config.risotto (build items) in
  check_i64 "exit code" 17L g.Core.Engine.arm.Arm.Machine.exit_code;
  check_bool "halted, no trap" true
    (g.Core.Engine.finished && g.Core.Engine.trap = None)

let test_write_syscall_output () =
  let items =
    [
      Label "main";
      Ins (I.Store ({ I.base = None; index = None; disp = 0xA000L }, I.I 0x6b6fL));
      (* "ok" *)
      Ins (I.Mov_ri (R.RAX, 1L));
      Ins (I.Mov_ri (R.RDI, 1L));
      Ins (I.Mov_ri (R.RSI, 0xA000L));
      Ins (I.Mov_ri (R.RDX, 2L));
      Ins I.Syscall;
      Ins I.Hlt;
    ]
  in
  let g, _ = run_config Core.Config.qemu (build items) in
  Alcotest.(check string) "output" "ok"
    (Buffer.contents g.Core.Engine.arm.Arm.Machine.output)

let test_concurrent_threads_sum () =
  (* 4 threads xadd a shared counter 50 times each. *)
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.R14, 0x7000L));
      Ins (I.Mov_ri (R.R15, 50L));
      Label "loop";
      Ins (I.Mov_ri (R.R8, 1L));
      Ins (I.Lock_xadd ({ I.base = Some R.R14; index = None; disp = 0L }, R.R8));
      Ins (I.Alu (I.Sub, R.R15, I.I 1L));
      Ins (I.Cmp (R.R15, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]
  in
  List.iter
    (fun config ->
      let image = build items in
      let eng = Core.Engine.create config image in
      let threads =
        List.init 4 (fun tid ->
            Core.Engine.spawn eng ~tid ~entry:image.Image.Gelf.entry ())
      in
      ignore (Core.Engine.run_concurrent eng threads);
      check_i64
        (config.Core.Config.name ^ ": counter")
        200L
        (Memsys.Mem.load (Core.Engine.memory eng) 0x7000L))
    Core.Config.all

(* A deeper hand-written program exercising calls, branches and the
   stack, compared across all configs. *)
let test_fib_program () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RDI, 12L));
      Call_lbl "fib";
      Ins (I.Store ({ I.base = None; index = None; disp = 0x5000L }, I.R R.RAX));
      Ins I.Hlt;
      (* iterative fib(rdi) -> rax *)
      Label "fib";
      Ins (I.Mov_ri (R.RAX, 0L));
      Ins (I.Mov_ri (R.RBX, 1L));
      Label "fib_loop";
      Ins (I.Cmp (R.RDI, I.I 0L));
      Jcc_lbl (I.E, "fib_done");
      Ins (I.Mov_rr (R.RCX, R.RAX));
      Ins (I.Alu (I.Add, R.RCX, I.R R.RBX));
      Ins (I.Mov_rr (R.RAX, R.RBX));
      Ins (I.Mov_rr (R.RBX, R.RCX));
      Ins (I.Alu (I.Sub, R.RDI, I.I 1L));
      Jmp_lbl "fib_loop";
      Label "fib_done";
      Ins I.Ret;
    ]
  in
  let image = build items in
  let reference = Oracle.reference image in
  check_i64 "oracle fib(12)" 144L reference.Oracle.regs.(R.index R.RAX);
  List.iter
    (fun config ->
      check_bool (config.Core.Config.name ^ " matches") true
        ((Oracle.run config image).Oracle.state = reference))
    Core.Config.all

(* Every engine cell on straight-line and seam-straddling programs, each
   also run under one drawn fault plan.  Looped programs are
   test_tiers'. *)
let differential config =
  Oracle.property
    ~name:("dbt(" ^ config.Core.Config.name ^ ") matches x86 interpreter")
    ~count:60
    (QCheck.pair (Oracle.arb_shapes [ Oracle.Straight; Oracle.Straddle ])
       Oracle.arb_plan)
    (fun (p, plan) ->
      let image = build (Oracle.items p) in
      Oracle.check_matrix config plan image (Oracle.reference image))

let props =
  List.map (fun c -> QCheck_alcotest.to_alcotest (differential c)) Core.Config.all

(* ------------------------------------------------------------------ *)
(* PLT interception                                                    *)

let linked_image func driver =
  Image.Gelf.build ~entry:"main" ~imports:[ Harness.Guest_libs.import func ] driver

let strlen_driver =
  [
    Label "main";
    (* "abcde" at 0xA000 (store immediates are 32-bit, like x86's
       mov [m], imm32: go through a register) *)
    Ins (I.Mov_ri (R.R11, 0x6564636261L));
    Ins (I.Store ({ I.base = None; index = None; disp = 0xA000L }, I.R R.R11));
    Ins (I.Mov_ri (R.RDI, 0xA000L));
    Call_lbl "strlen@plt";
    Ins I.Hlt;
  ]

let test_plt_interception_strlen () =
  let image = linked_image "strlen" strlen_driver in
  (* Without the linker: guest implementation is translated. *)
  let g_q, eng_q = run_config Core.Config.qemu image in
  check_i64 "guest strlen" 5L (Core.Engine.reg g_q R.RAX);
  let st_q = Core.Engine.stats eng_q in
  ignore st_q;
  (* With the linker: host function invoked. *)
  let g_r, _ = run_config Core.Config.risotto image in
  check_i64 "host strlen" 5L (Core.Engine.reg g_r R.RAX);
  check_int "one host call" 1 g_r.Core.Engine.arm.Arm.Machine.host_calls;
  check_int "no host call under qemu" 0 g_q.Core.Engine.arm.Arm.Machine.host_calls

let test_digest_agrees_across_linking () =
  (* The guest digest implementation is byte-exact with the host one. *)
  let driver =
    [
      Label "main";
      Ins (I.Mov_ri (R.R11, 0x1122334455667788L));
      Ins (I.Store ({ I.base = None; index = None; disp = 0xB000L }, I.R R.R11));
      Ins (I.Mov_ri (R.R11, 0x99aabbccddeeff00L));
      Ins (I.Store ({ I.base = None; index = None; disp = 0xB008L }, I.R R.R11));
      Ins (I.Mov_ri (R.RDI, 0xB000L));
      Ins (I.Mov_ri (R.RSI, 16L));
      Call_lbl "sha256@plt";
      Ins I.Hlt;
    ]
  in
  let image = linked_image "sha256" driver in
  let g_q, _ = run_config Core.Config.qemu image in
  let g_r, _ = run_config Core.Config.risotto image in
  check_i64 "sha256 guest = host"
    (Core.Engine.reg g_q R.RAX)
    (Core.Engine.reg g_r R.RAX);
  check_bool "digest nonzero" true (Core.Engine.reg g_r R.RAX <> 0L)

let test_unlinked_import_falls_back () =
  (* A function absent from the IDL is translated, even under risotto. *)
  let image = linked_image "strlen" strlen_driver in
  let eng = Core.Engine.create ~idl:[] Core.Config.risotto image in
  let g = Core.Engine.run eng in
  check_i64 "guest fallback" 5L (Core.Engine.reg g R.RAX);
  check_int "no host call" 0 g.Core.Engine.arm.Arm.Machine.host_calls;
  check_bool "unresolved recorded" true
    (Linker.Link.unresolved (Core.Engine.links eng) = [ "strlen" ])

let test_guest_clone () =
  (* The guest spawns 3 workers via the clone syscall; each adds its
     argument to an accumulator and signals a done-counter; the main
     thread spin-waits on the counter.  Exercises guest-initiated
     concurrency under every configuration. *)
  let acc = I.abs 0x7100L and done_ = I.abs 0x7108L in
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RSI, 10L));
      Call_lbl "spawn";
      Ins (I.Mov_ri (R.RSI, 20L));
      Call_lbl "spawn";
      Ins (I.Mov_ri (R.RSI, 30L));
      Call_lbl "spawn";
      Label "wait";
      Ins (I.Load (R.RBX, done_));
      Ins (I.Cmp (R.RBX, I.I 3L));
      Jcc_lbl (I.Ne, "wait");
      Ins (I.Load (R.R13, acc));
      Ins I.Hlt;
      (* spawn(rsi = worker argument): clone(worker, rsi) *)
      Label "spawn";
      Ins (I.Mov_ri (R.RAX, 56L));
      Mov_lbl (R.RDI, "worker");
      Ins I.Syscall;
      Ins I.Ret;
      (* worker(rdi = amount) *)
      Label "worker";
      Ins (I.Mov_rr (R.R8, R.RDI));
      Ins (I.Lock_xadd (acc, R.R8));
      Ins (I.Mov_ri (R.R8, 1L));
      Ins (I.Lock_xadd (done_, R.R8));
      Ins I.Hlt;
    ]
  in
  List.iter
    (fun config ->
      let image = build items in
      let eng = Core.Engine.create config image in
      let main = Core.Engine.spawn eng ~tid:0 ~entry:image.Image.Gelf.entry () in
      let all =
        Core.Engine.threads (Core.Engine.run_concurrent eng [ main ])
      in
      check_int (config.Core.Config.name ^ ": four threads ran") 4
        (List.length all);
      check_i64
        (config.Core.Config.name ^ ": accumulated")
        60L (Core.Engine.reg main R.R13))
    Core.Config.all

(* ------------------------------------------------------------------ *)
(* Persistent translation cache                                        *)

let test_persistent_cache () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 40L));
      Label "loop";
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]
  in
  let image = build items in
  let path = Filename.temp_file "risotto" ".tc" in
  (* First engine: translate and save. *)
  let eng1 = Core.Engine.create Core.Config.risotto image in
  let g1 = Core.Engine.run eng1 in
  let saved = Core.Engine.save_cache eng1 path in
  check_bool "blocks saved" true (saved >= 2);
  (* Second engine: load, run, and translate nothing. *)
  let eng2 = Core.Engine.create Core.Config.risotto image in
  let loaded =
    match Core.Engine.load_cache eng2 path with
    | Ok n -> n
    | Error f -> Alcotest.failf "cache load failed: %s" (Core.Fault.to_string f)
  in
  check_int "all blocks loaded" saved loaded;
  let g2 = Core.Engine.run eng2 in
  check_int "no retranslation" 0
    (Core.Engine.stats eng2).Core.Engine.blocks_translated;
  check_i64 "same result" (Core.Engine.reg g1 R.RBX) (Core.Engine.reg g2 R.RBX);
  check_int "same cycles" (Core.Engine.cycles g1) (Core.Engine.cycles g2);
  (* Wrong config is rejected (as a fault, not an exception). *)
  let eng3 = Core.Engine.create Core.Config.qemu image in
  check_bool "config mismatch rejected" true
    (match Core.Engine.load_cache eng3 path with
    | Error { Core.Fault.kind = Core.Fault.Cache_corrupt; _ } -> true
    | Ok _ | Error _ -> false);
  Sys.remove path

let () =
  Alcotest.run "core"
    [
      ( "frontend",
        [
          Alcotest.test_case "risotto fences (Fig 7a)" `Quick
            test_frontend_risotto_fences;
          Alcotest.test_case "qemu fences (Fig 2)" `Quick
            test_frontend_qemu_fences;
          Alcotest.test_case "no fences" `Quick test_frontend_no_fences;
          Alcotest.test_case "block cap" `Quick test_frontend_block_cap;
          Alcotest.test_case "mfence" `Quick test_frontend_mfence;
        ] );
      ( "backend",
        [
          Alcotest.test_case "CAS lowering strategies" `Quick
            test_backend_cas_lowering;
          Alcotest.test_case "register allocation" `Quick
            test_backend_register_pressure_ok;
        ] );
      ( "engine",
        [
          Alcotest.test_case "block cache" `Quick test_block_cache;
          Alcotest.test_case "exit syscall" `Quick test_exit_code_via_syscall;
          Alcotest.test_case "write syscall" `Quick test_write_syscall_output;
          Alcotest.test_case "concurrent xadd sum" `Quick
            test_concurrent_threads_sum;
          Alcotest.test_case "guest clone syscall" `Quick test_guest_clone;
          Alcotest.test_case "fib across configs" `Quick test_fib_program;
        ] );
      ("differential", props);
      ( "translation cache",
        [ Alcotest.test_case "save/load round trip" `Quick test_persistent_cache ] );
      ( "host linker",
        [
          Alcotest.test_case "PLT interception" `Quick
            test_plt_interception_strlen;
          Alcotest.test_case "digest agreement" `Quick
            test_digest_agrees_across_linking;
          Alcotest.test_case "fallback without IDL" `Quick
            test_unlinked_import_falls_back;
        ] );
    ]
