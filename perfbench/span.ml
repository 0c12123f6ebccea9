(* In-memory span recorder for the traced benchmark run.

   A span is (name, start, end, parent).  Every span feeds a per-name
   aggregate (count, inclusive and self nanoseconds, inclusive and self
   minor words, plus a caller-supplied unit count); the first [cap] spans
   are also kept verbatim so they can be written out at the end.  Self
   time is the span's duration minus the durations of its direct
   children, so nested spans never double count. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type agg = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable total_words : float;
  mutable self_words : float;
  mutable units : float;
}

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable aggs : agg array;
  (* open-span stack *)
  st_id : int array;
  st_start : int array;
  st_words : float array;
  st_child_ns : int array;
  st_child_words : float array;
  st_rec : int array;
  mutable depth : int;
  (* verbatim records *)
  cap : int;
  r_name : int array;
  r_start : int array;
  r_stop : int array;
  r_parent : int array;
  mutable stored : int;
  mutable dropped : int;
  (* cost of one empty span, subtracted from per-unit figures *)
  mutable overhead_ns : float;
  mutable overhead_words : float;
}

let max_depth = 64

let create ~cap =
  {
    ids = Hashtbl.create 64;
    names = [||];
    aggs = [||];
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_words = Array.make max_depth 0.;
    st_child_ns = Array.make max_depth 0;
    st_child_words = Array.make max_depth 0.;
    st_rec = Array.make max_depth (-1);
    depth = 0;
    cap;
    r_name = Array.make cap 0;
    r_start = Array.make cap 0;
    r_stop = Array.make cap 0;
    r_parent = Array.make cap (-1);
    stored = 0;
    dropped = 0;
    overhead_ns = 0.;
    overhead_words = 0.;
  }

let fresh_agg () =
  {
    count = 0;
    total_ns = 0;
    self_ns = 0;
    total_words = 0.;
    self_words = 0.;
    units = 0.;
  }

(* Intern a span name; do this once, outside the measured loops. *)
let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      Hashtbl.add t.ids name i;
      t.names <- Array.append t.names [| name |];
      t.aggs <- Array.append t.aggs [| fresh_agg () |];
      i

let enter t i =
  let d = t.depth in
  t.st_id.(d) <- i;
  t.st_child_ns.(d) <- 0;
  t.st_child_words.(d) <- 0.;
  (if t.stored < t.cap then begin
     let r = t.stored in
     t.stored <- r + 1;
     t.r_name.(r) <- i;
     t.r_parent.(r) <- (if d = 0 then -1 else t.st_rec.(d - 1));
     t.st_rec.(d) <- r
   end
   else begin
     t.dropped <- t.dropped + 1;
     t.st_rec.(d) <- -1
   end);
  t.depth <- d + 1;
  t.st_words.(d) <- Gc.minor_words ();
  t.st_start.(d) <- now ()

(* Close the innermost span, crediting it with [units] units of work. *)
let leave ?(units = 0.) t =
  let stop = now () in
  let words = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - t.st_start.(d) in
  let w = words -. t.st_words.(d) in
  let a = t.aggs.(t.st_id.(d)) in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + dur - t.st_child_ns.(d);
  a.total_words <- a.total_words +. w;
  a.self_words <- a.self_words +. w -. t.st_child_words.(d);
  a.units <- a.units +. units;
  let r = t.st_rec.(d) in
  if r >= 0 then begin
    t.r_start.(r) <- t.st_start.(d);
    t.r_stop.(r) <- stop
  end;
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. w
  end

let with_ ?units t i f =
  enter t i;
  match f () with
  | v ->
      leave ?units t;
      v
  | exception e ->
      leave ?units t;
      raise e

(* Credit extra units to a name without opening a span (for counts that
   are only known after the fact). *)
let add_units t i u = t.aggs.(i).units <- t.aggs.(i).units +. u

(* Measure the cost of an empty span (median of batches) so per-unit
   figures of short leaf spans can subtract it.  Calibration spans use
   their own name and are not part of any layer. *)
let calibrate t =
  let i = id t "trace.calibrate" in
  let batch = 2000 in
  let samples =
    Array.init 15 (fun _ ->
        let a = t.aggs.(i) in
        let ns0 = a.total_ns and w0 = a.total_words in
        for _ = 1 to batch do
          enter t i;
          leave t
        done;
        ( float_of_int (a.total_ns - ns0) /. float_of_int batch,
          (a.total_words -. w0) /. float_of_int batch ))
  in
  let med f =
    let xs = Array.map f samples in
    Array.sort compare xs;
    xs.(Array.length xs / 2)
  in
  t.overhead_ns <- med fst;
  t.overhead_words <- med snd

let agg t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> t.aggs.(i)
  | None -> fresh_agg ()

let count t name = (agg t name).count
let units t name = (agg t name).units

(* Self nanoseconds with the calibrated per-span cost removed. *)
let self_ns t name =
  let a = agg t name in
  Float.max 0. (float_of_int a.self_ns -. (float_of_int a.count *. t.overhead_ns))

let self_words t name =
  let a = agg t name in
  Float.max 0. (a.self_words -. (float_of_int a.count *. t.overhead_words))

let spans_recorded t = t.stored + t.dropped

(* Write the verbatim spans as TSV: name, start ns, end ns, parent row
   (-1 for roots; rows are 0-based in file order). *)
let write t path =
  let oc = open_out path in
  Printf.fprintf oc "# name\tstart_ns\tend_ns\tparent\n";
  for r = 0 to t.stored - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\n" t.names.(t.r_name.(r)) t.r_start.(r)
      t.r_stop.(r) t.r_parent.(r)
  done;
  if t.dropped > 0 then
    Printf.fprintf oc "# %d further spans aggregated but not stored\n"
      t.dropped;
  close_out oc
