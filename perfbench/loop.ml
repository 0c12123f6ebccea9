(* The closed loop shared by every workload: whole passes over the
   workload's units (programs or check requests), each unit starting when
   the previous one ends, until the time is up.  Only whole passes are
   measured, so every figure weighs the units the same way. *)

let report_failure label why = Printf.eprintf "FAILED %s: %s\n%!" label why

(* Outcomes over every unit run.  [first.(i)] is the fingerprint of unit
   [i]'s first run: every later run of it is a same-seed rerun and must
   reproduce it exactly. *)
type 'fp tally = { first : 'fp option array; mutable attempted : int; mutable failed : int }

let tally n = { first = Array.make n None; attempted = 0; failed = 0 }

let fail ?(n = 1) t label why =
  t.failed <- t.failed + n;
  report_failure label why

(* Record unit [i]'s fingerprint; [Some fp0] when an earlier run of it
   gave another one, [fp0]. *)
let rerun t i fp =
  match t.first.(i) with
  | None ->
      t.first.(i) <- Some fp;
      None
  | Some fp0 -> if fp0 = fp then None else Some fp0

type result = {
  attempted : int;
  failed : int;
  passes : int;
  rates : float array;  (** units per second, one per measured pass, corrected for host speed *)
  raw_rates : float array;  (** the same, uncorrected *)
}

(* [pass ~measured m ns] runs every unit once.  It charges the wall time
   it measures to [ns] through the host-speed meter [m] (see Yardstick)
   and returns the units it ran and their raw wall nanoseconds. *)
let run ~seconds (t : _ tally) pass =
  let rates = ref [] and raw = ref [] in
  let one ~measured =
    let m = Yardstick.meter () in
    let ns = ref 0. in
    let units, raw_ns = pass ~measured m ns in
    Yardstick.close m;
    if measured then begin
      raw := (float_of_int units /. (float_of_int raw_ns /. 1e9)) :: !raw;
      rates := (float_of_int units /. (!ns /. 1e9)) :: !rates
    end
  in
  let deadline = Span.now () + (seconds * 1_000_000_000) in
  let passes = ref 0 in
  while !passes = 0 || Span.now () < deadline do
    one ~measured:true;
    incr passes
  done;
  (* A window of one pass still gets its same-seed rerun. *)
  if !passes = 1 then one ~measured:false;
  {
    attempted = t.attempted;
    failed = t.failed;
    passes = !passes;
    rates = Array.of_list !rates;
    raw_rates = Array.of_list !raw;
  }
