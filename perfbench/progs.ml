(* Seeded guest programs for the three engine workloads, and the
   reference oracle every engine run is checked against. *)

module I = X86.Insn
module R = X86.Reg

type prog = { label : string; image : Image.Gelf.t }

let build label items = { label; image = Image.Gelf.build ~entry:"main" items }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let in_band rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* parsec-steady: the 16 PARSEC/Phoenix op mixes in a seeded order, each
   with a seeded iteration count.  The band keeps translation (a few
   blocks per kernel) well under 1% of a kernel's run time. *)
let parsec_iters = (45_000, 55_000)

let parsec rng =
  let benches = Array.of_list Harness.Parsec.all in
  shuffle rng benches;
  Array.to_list benches
  |> List.map (fun (b : Harness.Parsec.bench) ->
         let lo, hi = parsec_iters in
         let spec = { b.Harness.Parsec.spec with Harness.Kernel.iters = in_band rng lo hi } in
         build spec.Harness.Kernel.name (Harness.Kernel.to_x86 spec))

(* Straight-line op mix shared by the cold images and the call-dispatch
   function bodies.  RBX holds the data base; R8 is the xadd operand. *)
let data_base = 0x30000L
let work = [| R.RAX; R.RCX; R.RDX; R.R9; R.R10; R.R11; R.R12; R.R13 |]
let fp_regs = [| R.RSI; R.RDI |]
let pick rng a = a.(Random.State.int rng (Array.length a))
let slot rng = I.based R.RBX (Int64.of_int (8 * Random.State.int rng 64))

(* One mix step: a list of 1 or 2 instructions. *)
let mix_step rng =
  let r = Random.State.int rng 100 in
  if r < 24 then [ I.Load (pick rng work, slot rng) ]
  else if r < 42 then
    [
      I.Store
        ( slot rng,
          if Random.State.bool rng then I.R (pick rng work)
          else I.I (Int64.of_int (Random.State.int rng 1000)) );
    ]
  else if r < 78 then
    let dst = pick rng work in
    match Random.State.int rng 8 with
    | 0 -> [ I.Alu (I.Shl, dst, I.I (Int64.of_int (1 + Random.State.int rng 7))) ]
    | 1 -> [ I.Alu (I.Shr, dst, I.I (Int64.of_int (1 + Random.State.int rng 7))) ]
    | k ->
        let op = [| I.Add; I.Sub; I.And; I.Or; I.Xor; I.Imul |].(k - 2) in
        let src =
          if Random.State.bool rng then I.R (pick rng work)
          else I.I (Int64.of_int (1 + Random.State.int rng 255))
        in
        [ I.Alu (op, dst, src) ]
  else if r < 86 then
    [ I.Fp (pick rng [| I.Fadd; I.Fsub; I.Fmul |], pick rng fp_regs, pick rng fp_regs) ]
  else if r < 92 then
    [ I.Mov_ri (R.R8, Int64.of_int (1 + Random.State.int rng 9)); I.Lock_xadd (slot rng, R.R8) ]
  else [ I.Mfence ]

(* At least [n] instructions of mix (a trailing two-instruction step may
   overshoot by one). *)
let mix rng n =
  let rec go acc k = if k >= n then List.rev acc else
      let s = mix_step rng in
      go (List.rev_append s acc) (k + List.length s)
  in
  go [] 0

let prologue =
  [
    I.Mov_ri (R.RBX, data_base);
    I.Mov_ri (R.RAX, 1L);
    I.Mov_ri (R.RCX, 2L);
    I.Mov_ri (R.RDX, 3L);
    I.Mov_ri (R.R9, 5L);
    I.Mov_ri (R.RSI, Int64.bits_of_float 1.0000001);
    I.Mov_ri (R.RDI, Int64.bits_of_float 0.9999999);
    I.Mov_ri (R.R8, 1L);
  ]

let ins l = List.map (fun i -> X86.Asm.Ins i) l

(* cold-image: a straight-line image of [blocks] distinct blocks, each
   ended by a jump to the next.  The first block is always exactly
   [Core.Frontend.max_block_insns] instructions long, so time-to-first-
   block samples the same amount of translation in every image; later
   blocks are 2–32 instructions. *)
let cold_image rng ~blocks i =
  let open X86.Asm in
  let lbl k = Printf.sprintf "b%d" k in
  let first_mix = Core.Frontend.max_block_insns - List.length prologue - 1 in
  let first =
    (Label "main" :: ins prologue)
    @ ins (List.filteri (fun k _ -> k < first_mix) (mix rng first_mix))
    @ [ Jmp_lbl (lbl 1) ]
  in
  let body =
    List.concat_map
      (fun k ->
        let len = in_band rng 2 Core.Frontend.max_block_insns in
        let m = List.filteri (fun j _ -> j < len - 1) (mix rng (len - 1)) in
        (Label (lbl k) :: ins m) @ [ Jmp_lbl (lbl (k + 1)) ])
      (List.init (blocks - 1) (fun k -> k + 1))
  in
  build (Printf.sprintf "cold-%d-%dblk" i blocks)
    (first @ body @ [ Label (lbl blocks); Ins I.Hlt ])

let cold_images = 64
let cold_blocks = (24, 2400)

(* Block counts are log-uniform over [cold_blocks], stratified: image i
   draws from the i-th of [cold_images] equal log-width bands, so every
   seed gets the same spread of sizes. *)
let cold rng =
  let lo, hi = cold_blocks in
  let llo = log (float_of_int lo) and lhi = log (float_of_int hi) in
  let width = (lhi -. llo) /. float_of_int cold_images in
  let images =
    Array.init cold_images (fun i ->
        let blocks =
          int_of_float (exp (llo +. (width *. (float_of_int i +. Random.State.float rng 1.))))
        in
        cold_image rng ~blocks:(max lo (min hi blocks)) i)
  in
  shuffle rng images;
  Array.to_list images

(* call-dispatch: a hot loop calling [n] small functions through
   call/ret, in a seeded order.  Every return goes through the engine's
   indirect dispatch (jump cache, then the global table); the strata put
   half the programs below and half above the 1,024-slot jump cache. *)
let call_strata =
  [ (100, 200); (300, 500); (600, 900); (1100, 1400); (1500, 1900); (2000, 2400) ]

let call_dispatches = 1_000_000

let call_prog ?(dispatches = call_dispatches) rng ~n i =
  let open X86.Asm in
  let fname k = Printf.sprintf "f%d" k in
  let order = Array.init n Fun.id in
  shuffle rng order;
  let iters = max 1 (dispatches / ((2 * n) + 1)) in
  let funcs =
    List.concat_map
      (fun k ->
        let body =
          List.concat (List.init (in_band rng 1 2) (fun _ -> mix_step rng))
          |> List.filter (function I.Mfence | I.Fp _ -> false | _ -> true)
        in
        (Label (fname k) :: ins body) @ [ Ins I.Ret ])
      (List.init n Fun.id)
  in
  build
    (Printf.sprintf "call-%d-%dfn" i n)
    ((Label "main" :: ins prologue)
    @ [ Ins (I.Mov_ri (R.R15, Int64.of_int iters)); Label "loop" ]
    @ List.map (fun k -> Call_lbl (fname k)) (Array.to_list order)
    @ [
        Ins (I.Alu (I.Sub, R.R15, I.I 1L));
        Ins (I.Cmp (R.R15, I.I 0L));
        Jcc_lbl (I.Ne, "loop");
        Ins I.Hlt;
      ]
    @ funcs)

let calls rng =
  List.mapi (fun i (lo, hi) -> call_prog rng ~n:(in_band rng lo hi) i) call_strata

(* Small programs touching every op kind and dispatch path, run once
   before measuring so one-time process initialisation (lazy tables and
   the like) is not charged to the first measured program. *)
let warmup () =
  let rng = Random.State.make [| 0 |] in
  let b = List.hd Harness.Parsec.all in
  [
    build "warmup-kernel"
      (Harness.Kernel.to_x86 { b.Harness.Parsec.spec with Harness.Kernel.iters = 20 });
    cold_image rng ~blocks:40 0;
    call_prog ~dispatches:200 rng ~n:4 0;
  ]

(* ------------------------------------------------------------------ *)
(* Reference oracle: the x86 interpreter on the same image, started with
   the register state the engine gives its first guest thread. *)

type reference = {
  ref_regs : int64 array;  (** guest registers 0–15 *)
  ref_mem : (int64 * int64) list;
  ref_steps : int;  (** guest instructions retired *)
}

let ref_max_steps = 500_000_000

let interp_state ?(rsp = Core.Engine.stack_top 0) image =
  let st =
    X86.Interp.create ~code:image.Image.Gelf.text ~base:image.Image.Gelf.text_base
      ~entry:image.Image.Gelf.entry ()
  in
  st.X86.Interp.regs.(R.index R.RSP) <- rsp;
  st

(* The interpreter runs in slices of [ref_slice] steps, calling [tick]
   after each, so a host-speed meter can sample between them. *)
let ref_slice = 100_000

let reference ?rsp ?(tick = ignore) image =
  let st = interp_state ?rsp image in
  let steps = ref 0 in
  while (not st.X86.Interp.halted) && !steps < ref_max_steps do
    steps := !steps + X86.Interp.run ~max_steps:(min ref_slice (ref_max_steps - !steps)) st;
    tick ()
  done;
  let steps = !steps in
  if not st.X86.Interp.halted then
    failwith (Printf.sprintf "reference run did not halt after %d steps" steps);
  {
    ref_regs = Array.copy st.X86.Interp.regs;
    ref_mem = Memsys.Mem.dump st.X86.Interp.mem;
    ref_steps = steps;
  }

(* The workload's guest memory address stream, as (is_store, address)
   pairs in program order, from stepping the interpreter and decoding
   each instruction first.  Stops after [limit] accesses. *)
let address_stream ~limit image =
  let st = interp_state image in
  let out = ref [] and n = ref 0 in
  let reg r = st.X86.Interp.regs.(R.index r) in
  let ea (m : I.mem) =
    let b = match m.I.base with Some r -> reg r | None -> 0L in
    let x =
      match m.I.index with
      | Some (r, s) -> Int64.mul (reg r) (Int64.of_int s)
      | None -> 0L
    in
    Int64.add (Int64.add b x) m.I.disp
  in
  let push st_ a =
    out := (st_, a) :: !out;
    incr n
  in
  let rsp () = reg R.RSP in
  while (not st.X86.Interp.halted) && !n < limit do
    let insn, _ =
      X86.Decode.decode st.X86.Interp.code ~pc:st.X86.Interp.rip
        ~base:st.X86.Interp.base
    in
    (match insn with
    | I.Load (_, m) -> push false (ea m)
    | I.Store (m, _) -> push true (ea m)
    | I.Lock_cmpxchg (m, _) | I.Lock_xadd (m, _) | I.Xchg (m, _) ->
        push false (ea m);
        push true (ea m)
    | I.Push _ | I.Call _ -> push true (Int64.sub (rsp ()) 8L)
    | I.Pop _ | I.Ret -> push false (rsp ())
    | _ -> ());
    X86.Interp.step st
  done;
  Array.of_list (List.rev !out)
