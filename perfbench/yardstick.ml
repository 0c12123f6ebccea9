(* A fixed reference workload for correcting wall times for the host's
   speed at the moment of measurement.

   On a shared virtual machine the same program's wall time drifts by
   tens of percent over a minute as other tenants come and go.  Process
   CPU time drifts with it, so the CPU is slower rather than losing time
   slices, and the speed moves within a tenth of a second.  The
   yardstick is a tiny register-machine interpreter over a hashtable
   memory, the same kind of work as the engine, built only from the
   standard library, so no change to the code under test can change
   it.  Its slowdown against [nominal_ns], sampled around the measured
   work (see the meter below), rescales wall times to the machine at
   nominal speed. *)

type op =
  | Add of int * int * int
  | Addi of int * int * int64
  | Ld of int * int
  | St of int * int
  | Jnz of int * int

let prog = [| Addi (1, 1, 1L); Ld (2, 1); Add (3, 3, 2); St (1, 3); Addi (4, 4, -1L); Jnz (4, 0) |]
let iterations = 40_000

let work ~iterations () =
  let regs = Array.make 8 0L in
  let mem : (int64, int64) Hashtbl.t = Hashtbl.create 1024 in
  regs.(4) <- Int64.of_int iterations;
  let pc = ref 0 and steps = ref 0 in
  while !pc < Array.length prog do
    incr steps;
    (match prog.(!pc) with
    | Add (d, a, b) ->
        regs.(d) <- Int64.add regs.(a) regs.(b);
        incr pc
    | Addi (d, a, i) ->
        regs.(d) <- Int64.add regs.(a) i;
        incr pc
    | Ld (d, a) ->
        regs.(d) <-
          Option.value ~default:0L (Hashtbl.find_opt mem (Int64.logand regs.(a) 4095L));
        incr pc
    | St (a, s) ->
        Hashtbl.replace mem (Int64.logand regs.(a) 4095L) regs.(s);
        incr pc
    | Jnz (r, t) -> if regs.(r) <> 0L then pc := t else incr pc);
    if !steps land 63 = 0 then ignore (Sys.opaque_identity (List.init 8 Fun.id))
  done;
  regs.(3)

(* Wall time of one yardstick run on this machine when it is quiet. *)
let nominal_ns = 8_000_000.

(* One measurement: how much slower than nominal the machine is now.
   It runs on the calling domain only, also for work spread over a
   domain pool.  Copies run at once on extra domains read the machine no
   steadier, and their stop-the-world collections would involve the
   pool's parked domains, so a change to the pool would move them. *)
let slowdown () =
  let t0 = Span.now () in
  ignore (Sys.opaque_identity (work ~iterations ()));
  float_of_int (Span.now () - t0) /. nominal_ns

(* ------------------------------------------------------------------ *)
(* Segmented correction.  The host's speed moves within a tenth of a
   second, so a long program cannot be corrected from samples at its two
   ends alone.  A meter cuts measured time into segments of at least
   [segment_ns], samples the yardstick between segments, and divides the
   wall time charged inside a segment by the mean slowdown at its two
   ends.  Time spent sampling is not charged to anything. *)

let segment_ns = 100_000_000

type meter = {
  mutable prev : float;  (** slowdown at the open segment's start *)
  mutable opened : int;  (** when the open segment started *)
  mutable pending : (float ref * int) list;  (** raw ns charged in it *)
}

let meter () =
  let m = { prev = 1.; opened = 0; pending = [] } in
  m.prev <- slowdown ();
  m.opened <- Span.now ();
  m

(* Charge [ns] of wall time in the open segment to [acc]; [acc] receives
   the corrected time when the segment closes. *)
let charge m acc ns = m.pending <- (acc, ns) :: m.pending

let close m =
  let s = slowdown () in
  let f = (m.prev +. s) /. 2. in
  List.iter (fun (acc, ns) -> acc := !acc +. (float_of_int ns /. f)) m.pending;
  m.pending <- [];
  m.prev <- s;
  m.opened <- Span.now ()

(* Close the open segment if it is long enough; call between units of
   work only. *)
let due m = Span.now () - m.opened >= segment_ns

(* Corrected wall time of [f tick], where [f] calls [tick] between small
   steps of its work so the meter can sample mid-way.  Sampling time is
   left out. *)
let time f =
  let m = meter () in
  let acc = ref 0. and last = ref (Span.now ()) in
  let tick () =
    if due m then begin
      charge m acc (Span.now () - !last);
      close m;
      last := Span.now ()
    end
  in
  let r = f tick in
  charge m acc (Span.now () - !last);
  close m;
  (r, !acc)
