type trap =
  | Trap_insn of { kind : string; context : string }
  | Unknown_helper of string
  | Unknown_host of string
  | Runaway
  | Fell_through of int

type exit_state = Next_tb of int64 | Jump of int64 | Halted | Trapped of trap

let pp_trap ppf = function
  | Trap_insn { kind; context } -> Fmt.pf ppf "trap.%s %S" kind context
  | Unknown_helper name -> Fmt.pf ppf "unknown helper %s" name
  | Unknown_host func -> Fmt.pf ppf "unknown host function %s" func
  | Runaway -> Fmt.string ppf "runaway block"
  | Fell_through i -> Fmt.pf ppf "fell through at index %d" i

type thread = {
  tid : int;
  regs : int64 array;
  mutable cmp : int64 * int64;
  mutable exclusive : int64 option;
  mutable cycles : int;
  mutable insns : int;
  mutable fences : int;
  mutable helper_calls : int;
  mutable host_calls : int;
  mutable last_dmb : bool;
  mutable halted : bool;
  mutable exit_code : int64;
  output : Buffer.t;
}

type shared = {
  s_mem : Memsys.Mem.t;
  s_cost : Cost.t;
  helpers : (string, helper) Hashtbl.t;
  mutable stamp : int;
      (* identifies this registry's contents: fresh on creation and on
         every [register_helper], unique across all registries *)
}

and helper = shared -> thread -> int64 list -> int64

(* A block with the helper of each call instruction bound.  [slots] is
   indexed like [code]; [unbound] fills the slots of other instructions
   and of calls to names the registry lacks.  Binding is redone when the
   registry's stamp moves on, so a helper registered after [prepare]
   is the one that runs. *)
type prepared = {
  code : Insn.t array;
  mutable bound_at : int;  (* the registry stamp [slots] reflect *)
  mutable slots : helper array;
}

let stamps = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add stamps 1

let create_shared ?(cost = Cost.default) mem =
  {
    s_mem = mem;
    s_cost = cost;
    helpers = Hashtbl.create 16;
    stamp = fresh_stamp ();
  }

let mem s = s.s_mem
let cost s = s.s_cost

let register_helper s name h =
  Hashtbl.replace s.helpers name h;
  s.stamp <- fresh_stamp ()

let has_helper s name = Hashtbl.mem s.helpers name
let find_helper s name = Hashtbl.find_opt s.helpers name
let unbound : helper = fun _ _ _ -> 0L

let bind s p =
  p.slots <-
    Array.map
      (function
        | Insn.Blr_helper (name, _, _) | Insn.Host_call { func = name; _ } -> (
            match Hashtbl.find_opt s.helpers name with
            | Some h -> h
            | None -> unbound)
        | _ -> unbound)
      p.code;
  p.bound_at <- s.stamp

(* A block whose calls bind when the first one is reached: no registry
   stamp is -1. *)
let unbound_block code = { code; bound_at = -1; slots = [||] }

let prepare s code =
  let p = unbound_block code in
  bind s p;
  p

let code p = p.code

let create_thread tid =
  {
    tid;
    regs = Array.make 32 0L;
    cmp = (0L, 0L);
    exclusive = None;
    cycles = 0;
    insns = 0;
    fences = 0;
    helper_calls = 0;
    host_calls = 0;
    last_dmb = false;
    halted = false;
    exit_code = 0L;
    output = Buffer.create 16;
  }

let charge t c = t.cycles <- t.cycles + c

(* Contention model: an atomic that must steal the line pays one
   transfer per other sharer of the line (queueing on the coherence
   interconnect grows with the number of contenders). *)
let atomic_line s t addr =
  if Memsys.Mem.acquire_line s.s_mem addr ~tid:t.tid then
    let others = max 1 (Memsys.Mem.sharers s.s_mem addr - 1) in
    charge t (s.s_cost.Cost.line_transfer * others)

let[@inline] eval_cc (cc : Insn.cc) (a, b) =
  match cc with
  | Insn.Eq -> Int64.equal a b
  | Insn.Ne -> not (Int64.equal a b)
  | Insn.Lt -> Int64.compare a b < 0
  | Insn.Le -> Int64.compare a b <= 0
  | Insn.Gt -> Int64.compare a b > 0
  | Insn.Ge -> Int64.compare a b >= 0
  | Insn.Lo -> Int64.unsigned_compare a b < 0
  | Insn.Ls -> Int64.unsigned_compare a b <= 0
  | Insn.Hi -> Int64.unsigned_compare a b > 0
  | Insn.Hs -> Int64.unsigned_compare a b >= 0

let[@inline] alu_eval (op : Insn.alu) a b =
  match op with
  | Insn.Add -> Int64.add a b
  | Insn.Sub -> Int64.sub a b
  | Insn.And -> Int64.logand a b
  | Insn.Orr -> Int64.logor a b
  | Insn.Eor -> Int64.logxor a b
  | Insn.Lsl -> Int64.shift_left a (Int64.to_int b land 63)
  | Insn.Lsr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Insn.Mul -> Int64.mul a b

let[@inline] fp_eval (op : Insn.fpop) a b =
  let fa = Int64.float_of_bits a and fb = Int64.float_of_bits b in
  Int64.bits_of_float
    (match op with
    | Insn.Fadd -> fa +. fb
    | Insn.Fsub -> fa -. fb
    | Insn.Fmul -> fa *. fb
    | Insn.Fdiv -> fa /. fb
    | Insn.Fsqrt -> sqrt fb)

(* The helper a call instruction runs, rebinding first if the registry
   changed since the block was bound. *)
let helper_at s p i =
  if p.bound_at <> s.stamp then bind s p;
  p.slots.(i)

let[@inline] get t r = if r = Insn.xzr then 0L else t.regs.(r)
let[@inline] set t r v = if r <> Insn.xzr then t.regs.(r) <- v
let[@inline] operand t = function Insn.R r -> get t r | Insn.I i -> i
let rec args_of t = function [] -> [] | r :: rs -> get t r :: args_of t rs

(* A block may execute this many instructions, minus one, before it
   traps as [Runaway]. *)
let fuel_limit = 10_000_000

(* The run loop: execute [p.code.(i)] with [fuel] instructions left.
   Every instruction that continues in the block is a self tail call, so
   a block runs without allocating closures or a fuel cell. *)
let rec run s t p i fuel =
  if fuel <= 0 then Trapped Runaway
  else if i >= Array.length p.code then Trapped (Fell_through i)
  else begin
    let c = s.s_cost in
    let insn = p.code.(i) in
    t.insns <- t.insns + 1;
    let was_dmb = t.last_dmb in
    t.last_dmb <- false;
    match insn with
    | Insn.Movz (r, v) ->
        charge t c.base;
        set t r v;
        run s t p (i + 1) (fuel - 1)
    | Insn.Mov (a, b) ->
        charge t c.base;
        set t a (get t b);
        run s t p (i + 1) (fuel - 1)
    | Insn.Alu (op, d, a, b) ->
        charge t (match op with Insn.Mul -> c.mul | _ -> c.base);
        set t d (alu_eval op (get t a) (operand t b));
        run s t p (i + 1) (fuel - 1)
    | Insn.Ldr (d, b, off) ->
        charge t c.ldr;
        set t d (Memsys.Mem.load s.s_mem (Int64.add (get t b) off));
        run s t p (i + 1) (fuel - 1)
    | Insn.Str (src, b, off) ->
        charge t c.str;
        Memsys.Mem.store s.s_mem (Int64.add (get t b) off) (get t src);
        run s t p (i + 1) (fuel - 1)
    | Insn.Ldar (d, b) | Insn.Ldapr (d, b) ->
        charge t (c.ldr + c.acq_rel_extra);
        set t d (Memsys.Mem.load s.s_mem (get t b));
        run s t p (i + 1) (fuel - 1)
    | Insn.Stlr (src, b) ->
        charge t (c.str + c.acq_rel_extra);
        Memsys.Mem.store s.s_mem (get t b) (get t src);
        run s t p (i + 1) (fuel - 1)
    | Insn.Ldxr (d, b) | Insn.Ldaxr (d, b) ->
        charge t c.excl;
        (match insn with
        | Insn.Ldaxr _ -> charge t c.acq_rel_extra
        | _ -> ());
        let addr = get t b in
        t.exclusive <- Some addr;
        set t d (Memsys.Mem.load s.s_mem addr);
        run s t p (i + 1) (fuel - 1)
    | Insn.Stxr (st, src, b) | Insn.Stlxr (st, src, b) ->
        charge t c.excl;
        (match insn with
        | Insn.Stlxr _ -> charge t c.acq_rel_extra
        | _ -> ());
        let addr = get t b in
        (match t.exclusive with
        | Some a when Int64.equal a addr ->
            atomic_line s t addr;
            Memsys.Mem.store s.s_mem addr (get t src);
            set t st 0L
        | _ -> set t st 1L);
        t.exclusive <- None;
        run s t p (i + 1) (fuel - 1)
    | Insn.Cas { cmp; swap; base; _ } ->
        (* casal's acquire/release cost is already in [c.cas] *)
        charge t c.cas;
        let addr = get t base in
        atomic_line s t addr;
        let old = Memsys.Mem.load s.s_mem addr in
        if Int64.equal old (get t cmp) then
          Memsys.Mem.store s.s_mem addr (get t swap);
        set t cmp old;
        run s t p (i + 1) (fuel - 1)
    | Insn.Ldadd { old; src; base; _ } ->
        charge t c.cas;
        let addr = get t base in
        atomic_line s t addr;
        let cur = Memsys.Mem.load s.s_mem addr in
        Memsys.Mem.store s.s_mem addr (Int64.add cur (get t src));
        set t old cur;
        run s t p (i + 1) (fuel - 1)
    | Insn.Swp { old; src; base; _ } ->
        charge t c.cas;
        let addr = get t base in
        atomic_line s t addr;
        let cur = Memsys.Mem.load s.s_mem addr in
        Memsys.Mem.store s.s_mem addr (get t src);
        set t old cur;
        run s t p (i + 1) (fuel - 1)
    | Insn.Dmb b ->
        t.last_dmb <- true;
        t.fences <- t.fences + 1;
        charge t
          (if was_dmb then c.dmb_chained
           else
             match b with
             | Insn.Full -> c.dmb_full
             | Insn.Ld -> c.dmb_ld
             | Insn.St -> c.dmb_st);
        run s t p (i + 1) (fuel - 1)
    | Insn.Cmp (r, o) ->
        charge t c.base;
        t.cmp <- (get t r, operand t o);
        run s t p (i + 1) (fuel - 1)
    | Insn.B tgt ->
        charge t c.branch;
        run s t p tgt (fuel - 1)
    | Insn.Bcc (cc, tgt) ->
        charge t c.branch;
        run s t p (if eval_cc cc t.cmp then tgt else i + 1) (fuel - 1)
    | Insn.Cbz (r, tgt) ->
        charge t c.branch;
        run s t p (if Int64.equal (get t r) 0L then tgt else i + 1) (fuel - 1)
    | Insn.Cbnz (r, tgt) ->
        charge t c.branch;
        run s t p
          (if not (Int64.equal (get t r) 0L) then tgt else i + 1)
          (fuel - 1)
    | Insn.Cset (r, cc) ->
        charge t c.base;
        set t r (if eval_cc cc t.cmp then 1L else 0L);
        run s t p (i + 1) (fuel - 1)
    | Insn.Fp (op, d, a, b) ->
        charge t c.fp;
        set t d (fp_eval op (get t a) (get t b));
        run s t p (i + 1) (fuel - 1)
    | Insn.Blr_helper (name, args, ret) ->
        charge t c.helper_call;
        t.helper_calls <- t.helper_calls + 1;
        let h = helper_at s p i in
        if h == unbound then Trapped (Unknown_helper name)
        else call s t p i fuel h args ret
    | Insn.Host_call { func; args; ret } ->
        charge t (c.host_call + (c.marshal_per_arg * List.length args));
        t.host_calls <- t.host_calls + 1;
        let h = helper_at s p i in
        if h == unbound then Trapped (Unknown_host func)
        else call s t p i fuel h args ret
    | Insn.Goto_tb pc ->
        charge t c.branch;
        Next_tb pc
    | Insn.Goto_ptr r ->
        charge t c.branch;
        Jump (get t r)
    | Insn.Exit_halt -> Halted
    | Insn.Trap { kind; context } -> Trapped (Trap_insn { kind; context })
  end

and call s t p i fuel h args ret =
  let v = h s t (args_of t args) in
  (match ret with Some r -> set t r v | None -> ());
  if t.halted then Halted else run s t p (i + 1) (fuel - 1)

let exec_prepared s t p = run s t p 0 (fuel_limit - 1)

let exec_block s t code = exec_prepared s t (unbound_block code)
