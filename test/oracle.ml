(* The differential oracle shared by every test executable: one
   guest-program generator, one projection of guest state, one example
   corpus, one fault-plan corpus, one run helper and the checks of the
   matrix they feed.

   Every execution path of the engine — the TCG interpreter, baseline
   native code, superblocks, synchronous and background tier-1
   installs, fault fallback — must reach the state the x86 reference
   interpreter reaches (Theorem 1 made executable).  The matrix is the
   engine cells of [cells] under every preset, fault-free and under
   fault plans, with the recorder and trace+metrics toggles.  Each
   suite runs the slice that covers its subsystem:

   - test_core: every cell vs [reference] on straight-line and
     seam-straddling programs, one drawn fault plan each;
   - test_tiers: the same on looped programs, and the tier cells on the
     example and fault-plan corpora;
   - test_dispatch: the plain, unchained and traced cells on the
     corpora, and chaining's cycle neutrality;
   - test_obs: the trace+metrics toggle on every program source;
   - test_flight: the recorder toggle on every program source. *)

module I = X86.Insn
module R = X86.Reg
open X86.Asm

let build items = Image.Gelf.build ~entry:"main" items

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)

(* Guest-visible state: registers RAX..R15 (host scratch registers
   above index 15 legitimately differ between native code and the
   interpreter), the memory dump and whether the thread trapped. *)
type state = {
  regs : int64 array;
  mem : (int64 * int64) list;
  trapped : bool;
}

let project ~regs ~mem ~trapped =
  { regs = Array.sub regs 0 16; mem = Memsys.Mem.dump mem; trapped }

let engine_state eng g =
  project ~regs:g.Core.Engine.arm.Arm.Machine.regs
    ~mem:(Core.Engine.memory eng)
    ~trapped:(Option.is_some (Core.Engine.trap g))

(* The first difference between two states, for failure messages. *)
let diff a b =
  match
    List.find_opt (fun r -> a.regs.(R.index r) <> b.regs.(R.index r)) R.all
  with
  | Some r ->
      Printf.sprintf "%s = 0x%Lx vs 0x%Lx" (R.name r) a.regs.(R.index r)
        b.regs.(R.index r)
  | None ->
      if a.trapped <> b.trapped then
        Printf.sprintf "trapped = %b vs %b" a.trapped b.trapped
      else if a.mem <> b.mem then "memory differs"
      else "equal"

(* The x86 reference interpreter, started like engine thread 0. *)
let reference image =
  let s =
    X86.Interp.create ~code:image.Image.Gelf.text
      ~base:image.Image.Gelf.text_base ~entry:image.Image.Gelf.entry ()
  in
  s.X86.Interp.regs.(R.index R.RSP) <- Core.Engine.stack_top 0;
  ignore (X86.Interp.run s);
  project ~regs:s.X86.Interp.regs ~mem:s.X86.Interp.mem ~trapped:false

(* ------------------------------------------------------------------ *)
(* Running an engine                                                   *)

type run = { state : state; cycles : int; stats : Core.Engine.stats }

(* Run [image] to completion on a fresh engine.  [drain_installs]
   settles background compiles before anything is read, so a tiered
   async run reports its whole ladder.  [~flight:false] turns the
   always-on flight recorder off and [~obs:true] turns the tracer and
   the metrics registry on, for the duration of the run only. *)
let run ?(flight = true) ?(obs = false) config image =
  let go () =
    let eng = Core.Engine.create config image in
    let g = Core.Engine.run eng in
    Core.Engine.drain_installs eng;
    {
      state = engine_state eng g;
      cycles = Core.Engine.cycles g;
      stats = Core.Engine.stats eng;
    }
  in
  let with_obs f =
    if not obs then f ()
    else begin
      Obs.Trace.enable ();
      Obs.Metrics.enable ();
      Fun.protect f ~finally:(fun () ->
          Obs.Trace.disable ();
          Obs.Trace.clear ();
          Obs.Metrics.disable ();
          Obs.Metrics.reset ())
    end
  in
  if flight then with_obs go
  else begin
    Obs.Flight.disable ();
    Fun.protect ~finally:Obs.Flight.enable (fun () -> with_obs go)
  end

(* The engine cells of the matrix, derived from one preset: chained
   baseline, unchained, static superblocks, the interpreter alone, and
   the tier ladder with inline or background installs.  All but
   tiered-async are deterministic: same cycles and stats on every
   run. *)
let cells config =
  [
    ("plain", config);
    ("unchained", { config with Core.Config.chain = false });
    ("traced", { config with Core.Config.trace_threshold = 3 });
    ( "tier0-only",
      { config with Core.Config.jit_threshold = max_int; trace_threshold = 0 }
    );
    ( "tiered-sync",
      {
        config with
        Core.Config.jit_threshold = 2;
        trace_threshold = 4;
        sync_compile = true;
      } );
    ( "tiered-async",
      {
        config with
        Core.Config.jit_threshold = 2;
        trace_threshold = 4;
        sync_compile = false;
      } );
  ]

let deterministic (cell, _) = cell <> "tiered-async"

(* ------------------------------------------------------------------ *)
(* Example corpus                                                      *)

let countdown_n n =
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, Int64.of_int n));
    Label "loop";
    Ins (I.Store (I.abs 0x5000L, I.R R.RBX));
    Ins (I.Load (R.RCX, I.abs 0x5000L));
    Ins (I.Alu (I.Add, R.RDX, I.R R.RCX));
    Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
    Ins (I.Cmp (R.RBX, I.I 0L));
    Jcc_lbl (I.Ne, "loop");
    Ins I.Hlt;
  ]

(* RDX = 25 + 24 + ... + 1 = 325. *)
let countdown = countdown_n 25

(* The gelf_tool demo image: factorial through call/ret. *)
let fact =
  [
    Label "main";
    Ins (I.Mov_ri (R.RDI, 10L));
    Call_lbl "fact";
    Ins (I.Store (I.abs 0x5000L, I.R R.RAX));
    Ins I.Hlt;
    Label "fact";
    Ins (I.Mov_ri (R.RAX, 1L));
    Label "floop";
    Ins (I.Test (R.RDI, I.R R.RDI));
    Jcc_lbl (I.E, "fdone");
    Ins (I.Alu (I.Imul, R.RAX, I.R R.RDI));
    Ins (I.Dec R.RDI);
    Jmp_lbl "floop";
    Label "fdone";
    Ins I.Ret;
  ]

(* A loop whose body overflows the 32-insn block cap, so it splits into
   two blocks joined by an unconditional Goto_tb: the seam a superblock
   merges fences and memory ops across. *)
let split =
  let body =
    List.concat_map
      (fun k ->
        let m = I.abs (Int64.of_int (0x6000 + (8 * k))) in
        [
          Ins (I.Store (m, I.R R.RSI));
          Ins (I.Load (R.RDI, m));
          Ins (I.Alu (I.Add, R.RSI, I.R R.RDI));
        ])
      (List.init 12 Fun.id)
  in
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, 20L));
    Ins (I.Mov_ri (R.RSI, 7L));
    Label "loop";
  ]
  @ body
  @ [
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]

let examples = [ ("countdown", countdown); ("fact", fact); ("split", split) ]

(* ------------------------------------------------------------------ *)
(* Fault-plan corpus                                                   *)

let fault_plans =
  Core.Inject.
    [
      [ Nth (Compile, 1) ];
      [ Nth (Compile, 3) ];
      [ Always Compile ];
      [ Seeded { site = Compile; seed = 42L; permille = 500 } ];
      [ Nth (Decode, 3) ];
      [ Always Decode ];
      [ Nth (Host_call, 1) ];
    ]

(* ------------------------------------------------------------------ *)
(* Generated programs                                                  *)

(* [Straight]: the body alone.  [Straddle]: the body starts [offset]
   nops into its first block, so a 32-insn seam falls inside it, with
   flags possibly live across the seam.  [Looped]: the body inside a
   counted R15 loop of [iters] iterations, so every block runs
   repeatedly and climbs the tier ladder. *)
type shape = Straight | Straddle | Looped

type program = { shape : shape; offset : int; iters : int; body : I.t list }

(* RAX..RDI: never RSP, and never the loop counter R15. *)
let reg = QCheck.Gen.map R.of_index (QCheck.Gen.int_range 0 5)

let mem_op =
  QCheck.Gen.map
    (fun k -> I.abs (Int64.of_int (0x5000 + (8 * k))))
    (QCheck.Gen.int_range 0 7)

let insn =
  let open QCheck.Gen in
  let alu = oneofl [ I.Add; I.Sub; I.And; I.Or; I.Xor; I.Imul ] in
  oneof
    [
      map2 (fun r i -> I.Mov_ri (r, Int64.of_int i)) reg small_int;
      map2 (fun a b -> I.Mov_rr (a, b)) reg reg;
      map2 (fun r m -> I.Load (r, m)) reg mem_op;
      map2 (fun m r -> I.Store (m, I.R r)) mem_op reg;
      map2 (fun m i -> I.Store (m, I.I (Int64.of_int i))) mem_op small_int;
      map3 (fun op r r2 -> I.Alu (op, r, I.R r2)) alu reg reg;
      map3
        (fun op r i -> I.Alu (op, r, I.I (Int64.of_int i)))
        alu reg (int_range (-100) 100);
      map3
        (fun op a b -> I.Fp (op, a, b))
        (oneofl [ I.Fadd; I.Fsub; I.Fmul ])
        reg reg;
      map (fun r -> I.Inc r) reg;
      map (fun r -> I.Dec r) reg;
      map (fun r -> I.Neg r) reg;
      map (fun r -> I.Not r) reg;
      map2 (fun r m -> I.Lea (r, m)) reg mem_op;
      map2 (fun a b -> I.Test (a, I.R b)) reg reg;
      map3
        (fun cc a b -> I.Cmov (cc, a, b))
        (oneofl [ I.E; I.Ne; I.L; I.A ])
        reg reg;
      map2 (fun m r -> I.Lock_cmpxchg (m, r)) mem_op reg;
      map2 (fun m r -> I.Lock_xadd (m, r)) mem_op reg;
      map2 (fun m r -> I.Xchg (m, r)) mem_op reg;
      return I.Mfence;
      return I.Nop;
      map (fun r -> I.Push r) reg;
    ]

let max_body = 40

let gen_shape shape =
  let open QCheck.Gen in
  let* body = list_size (int_bound max_body) insn in
  let n = List.length body in
  let* offset =
    match shape with
    | Straddle when n >= 2 ->
        (* seam after body insn j, 1 <= j < n, j <= 32 *)
        map (fun j -> 32 - j) (int_range 1 (min (n - 1) 32))
    | Straddle -> int_bound 31
    | Straight | Looped -> return 0
  in
  let* iters = if shape = Looped then int_range 4 12 else return 0 in
  return { shape; offset; iters; body }

let items p =
  let body = List.map (fun i -> Ins i) p.body in
  let halt = [ Ins I.Hlt ] in
  match p.shape with
  | Straight -> (Label "main" :: body) @ halt
  | Straddle ->
      (Label "main" :: List.init p.offset (fun _ -> Ins I.Nop)) @ body @ halt
  | Looped ->
      [
        Label "main";
        Ins (I.Mov_ri (R.R15, Int64.of_int p.iters));
        Label "loop";
      ]
      @ body
      @ [
          Ins (I.Alu (I.Sub, R.R15, I.I 1L));
          Ins (I.Cmp (R.R15, I.I 0L));
          Jcc_lbl (I.Ne, "loop");
        ]
      @ halt

let print p =
  let head =
    match p.shape with
    | Straight -> "straight"
    | Straddle -> Printf.sprintf "straddle offset=%d" p.offset
    | Looped -> Printf.sprintf "looped iters=%d" p.iters
  in
  String.concat "\n" (head :: List.map (Fmt.str "%a" I.pp) p.body)

(* Shrinking drops and simplifies body instructions; the shape, the
   offset and the iteration count stay, so a Straddle counterexample
   keeps its seam (a seam past the shrunk body is still a seam). *)
let arbitrary gen =
  QCheck.make ~print
    ~shrink:(fun p yield ->
      QCheck.Shrink.list p.body (fun body -> yield { p with body }))
    gen

let arb_shape shape = arbitrary (gen_shape shape)

let arb_shapes shapes = arbitrary QCheck.Gen.(oneofl shapes >>= gen_shape)
let arb_program = arb_shapes [ Straight; Straddle; Looped ]

let arb_plan =
  QCheck.make ~print:Core.Inject.plan_to_string
    (QCheck.Gen.oneofl fault_plans)

(* ------------------------------------------------------------------ *)
(* The matrix checks                                                   *)

(* Each check raises [Divergence] with a description of the first
   difference it finds; [property] and [on_examples] turn it into a
   QCheck or Alcotest failure. *)
exception Divergence of string

let fail fmt = Printf.ksprintf (fun m -> raise (Divergence m)) fmt

let all_cells = List.map fst (cells Core.Config.risotto)
let dispatch_cells = [ "plain"; "unchained"; "traced" ]
let tier_cells = [ "tier0-only"; "tiered-sync"; "tiered-async" ]

let under plan config = { config with Core.Config.inject = plan }

let label config cell =
  match config.Core.Config.inject with
  | [] -> config.Core.Config.name ^ "/" ^ cell
  | plan ->
      Printf.sprintf "%s/%s under %s" config.Core.Config.name cell
        (Core.Inject.plan_to_string plan)

let pick names config =
  List.filter (fun (cell, _) -> List.mem cell names) (cells config)

(* Fault-free, each of the [names] cells reaches [reference].  Returns
   the runs, keyed by cell. *)
let check_reference names config image reference =
  List.map
    (fun (cell, cfg) ->
      let r = run cfg image in
      if r.state <> reference then
        fail "%s differs from the x86 interpreter: %s" (label config cell)
          (diff reference r.state);
      (cell, r))
    (pick names config)

(* Chaining runs the same code in the same order, so it must not
   change a single cycle.  [runs] holds the plain and unchained cells. *)
let check_chaining_cycles config runs =
  let cycles cell = (List.assoc cell runs).cycles in
  if cycles "plain" <> cycles "unchained" then
    fail "%s: chaining changed cycles (%d vs %d)" config.Core.Config.name
      (cycles "plain") (cycles "unchained")

(* Under the fault plan [config] carries, each of the [names] cells
   agrees with the plain cell on state and trap, and a run that did not
   trap still reaches [reference]. *)
let check_fault names config image reference =
  let plain = (run config image).state in
  List.iter
    (fun (cell, cfg) ->
      let s = if cell = "plain" then plain else (run cfg image).state in
      if (not s.trapped) && s <> reference then
        fail "%s: untrapped run differs from the x86 interpreter: %s"
          (label config cell) (diff reference s);
      if s <> plain then
        fail "%s differs from plain: %s" (label config cell) (diff plain s))
    (pick names config)

(* The whole fault-free matrix, then [plan] across every cell. *)
let check_matrix config plan image reference =
  check_chaining_cycles config
    (check_reference all_cells config image reference);
  check_fault all_cells (under plan config) image reference

type toggle = Recorder_off | Obs_on

(* Turning the flight recorder off, or the tracer and metrics registry
   on, leaves every deterministic cell bit-identical: state, cycles and
   every engine statistic. *)
let check_toggle toggle config image =
  List.iter
    (fun ((cell, cfg) as c) ->
      if deterministic c then begin
        let base = run cfg image in
        let name, r =
          match toggle with
          | Recorder_off -> ("recorder off", run ~flight:false cfg image)
          | Obs_on -> ("trace+metrics on", run ~obs:true cfg image)
        in
        let at = label config cell in
        if r.state <> base.state then
          fail "%s: %s changed guest state (%s)" at name
            (diff base.state r.state);
        if r.cycles <> base.cycles then
          fail "%s: %s changed cycles (%d vs %d)" at name base.cycles r.cycles;
        if r.stats <> base.stats then
          fail "%s: %s changed engine stats" at name
      end)
    (cells config)

(* ------------------------------------------------------------------ *)
(* Running the checks                                                  *)

(* A QCheck property over [arb]; the tier-1 [count] is multiplied by
   100 under QCHECK_LONG (the nightly fuzz job). *)
let property ~name ~count arb check =
  QCheck.Test.make ~name ~count ~long_factor:100 arb (fun x ->
      match check x with
      | () -> true
      | exception Divergence m -> QCheck.Test.fail_report m)

(* [check config image reference] for every preset and every example
   program. *)
let on_examples check =
  List.iter
    (fun config ->
      List.iter
        (fun (name, items) ->
          let image = build items in
          match check config image (reference image) with
          | () -> ()
          | exception Divergence m -> Alcotest.failf "%s: %s" name m)
        examples)
    Core.Config.all

(* The same, under every plan of the fault-plan corpus. *)
let on_fault_corpus check =
  on_examples (fun config image reference ->
      List.iter
        (fun plan -> check (under plan config) image reference)
        fault_plans)

(* [check config image reference] for every preset on one generated
   program drawn together with one fault plan. *)
let on_presets check (p, plan) =
  let image = build (items p) in
  let reference = reference image in
  List.iter (fun config -> check config plan image reference) Core.Config.all
