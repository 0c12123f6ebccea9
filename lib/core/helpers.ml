module M = Arm.Machine

let softfloat_cycles = 38

let arg n args =
  match List.nth args n with
  | v -> v
  | exception Failure _ ->
      Fault.raise_ Fault.Helper_fault
        (Printf.sprintf "missing helper argument %d" n)

let softfloat op _shared t args =
  M.charge t softfloat_cycles;
  let a = Int64.float_of_bits (arg 0 args)
  and b = Int64.float_of_bits (arg 1 args) in
  Int64.bits_of_float
    (match op with
    | `Add -> a +. b
    | `Sub -> a -. b
    | `Mul -> a *. b
    | `Div -> a /. b
    | `Sqrt -> sqrt b)

(* The GCC-9 helper: LDAXR/STLXR loop.  Cost: two exclusives with
   acquire/release, plus line transfer under contention. *)
let cmpxchg_gcc9 shared (t : M.thread) args =
  let c = M.cost shared in
  M.charge t ((2 * c.Arm.Cost.excl) + (2 * c.Arm.Cost.acq_rel_extra));
  let addr = arg 0 args and expect = arg 1 args and desired = arg 2 args in
  M.atomic_line shared t addr;
  let old = Memsys.Mem.load (M.mem shared) addr in
  if Int64.equal old expect then Memsys.Mem.store (M.mem shared) addr desired;
  old

(* The GCC-10 helper: a casal. *)
let cmpxchg_gcc10 shared (t : M.thread) args =
  let c = M.cost shared in
  M.charge t c.Arm.Cost.cas;
  let addr = arg 0 args and expect = arg 1 args and desired = arg 2 args in
  M.atomic_line shared t addr;
  let old = Memsys.Mem.load (M.mem shared) addr in
  if Int64.equal old expect then Memsys.Mem.store (M.mem shared) addr desired;
  old

let atomic_op op ~gcc9 shared (t : M.thread) args =
  let c = M.cost shared in
  M.charge t
    (if gcc9 then (2 * c.Arm.Cost.excl) + (2 * c.Arm.Cost.acq_rel_extra)
     else c.Arm.Cost.cas);
  let addr = arg 0 args and src = arg 1 args in
  M.atomic_line shared t addr;
  let old = Memsys.Mem.load (M.mem shared) addr in
  Memsys.Mem.store (M.mem shared) addr
    (match op with `Xadd -> Int64.add old src | `Xchg -> src);
  old

let register_all ?on_clone ?inject shared =
  M.register_helper shared "helper_syscall" (fun s t args ->
      match arg 0 args with
      | 60L ->
          t.M.halted <- true;
          t.M.exit_code <- arg 1 args;
          0L
      | 1L ->
          let buf = arg 2 args and len = Int64.to_int (arg 3 args) in
          for i = 0 to len - 1 do
            Buffer.add_char t.M.output
              (Char.chr
                 (Memsys.Mem.load_byte (M.mem s) (Int64.add buf (Int64.of_int i))))
          done;
          arg 3 args
      | 56L -> (
          (* clone(fn=rdi, arg=rsi): spawn a guest thread at [fn] with
             RDI = arg; returns the child tid (or -ENOSYS when the
             engine runs single-threaded). *)
          match on_clone with
          | Some spawn -> spawn ~entry:(arg 1 args) ~arg:(arg 2 args)
          | None -> -38L)
      | 186L -> Int64.of_int t.M.tid
      | _ -> -38L);
  M.register_helper shared "helper_cmpxchg_gcc9" cmpxchg_gcc9;
  M.register_helper shared "helper_cmpxchg_gcc10" cmpxchg_gcc10;
  M.register_helper shared "helper_xadd_gcc9" (atomic_op `Xadd ~gcc9:true);
  M.register_helper shared "helper_xadd_gcc10" (atomic_op `Xadd ~gcc9:false);
  M.register_helper shared "helper_xchg_gcc9" (atomic_op `Xchg ~gcc9:true);
  M.register_helper shared "helper_xchg_gcc10" (atomic_op `Xchg ~gcc9:false);
  M.register_helper shared "sf_add" (softfloat `Add);
  M.register_helper shared "sf_sub" (softfloat `Sub);
  M.register_helper shared "sf_mul" (softfloat `Mul);
  M.register_helper shared "sf_div" (softfloat `Div);
  M.register_helper shared "sf_sqrt" (softfloat `Sqrt);
  List.iter
    (fun (name, (fn : Linker.Hostlib.fn)) ->
      M.register_helper shared name (fun s t args ->
          (match inject with
          | Some inj when Inject.fire inj Inject.Host_call ->
              Fault.raise_ Fault.Link_fault
                ("injected host-call fault in " ^ name)
          | Some _ | None -> ());
          M.charge t (fn.Linker.Hostlib.cycles args);
          fn.Linker.Hostlib.call (M.mem s) args))
    Linker.Hostlib.all
