(* The refine-corpus workload: a seeded generated litmus corpus, deduped
   into shape classes, checked under the three proven generated-sweep
   schemes through the batch planner on a small domain pool. *)

let programs = 6000

(* Cells of this many consecutive shape classes (every scheme) form one
   check_cells request. *)
let classes_per_request = 50

type setup = {
  corpus : Litmus.Generate.corpus;
  requests : Mapping.Check.cell list array;
  cells : int;
}

(* Generate the corpus (under the span "generate" when [sp] is given)
   and form the requests. *)
let make ?(programs = programs) ?sp ~seed () =
  let generate () = Litmus.Generate.corpus ~seed programs in
  let corpus =
    match sp with
    | None -> generate ()
    | Some sp -> Span.with_ sp (Span.id sp "generate") ~units:(float_of_int programs) generate
  in
  let entries =
    List.filter
      (fun (e : Report.Sweep.entry) ->
        List.mem e.Report.Sweep.scheme Report.Sweep.default_generated_schemes)
      (Report.Sweep.default_entries ())
  in
  let per_class =
    List.map
      (fun (cls : Litmus.Generate.cls) ->
        List.map
          (fun (e : Report.Sweep.entry) ->
            {
              Mapping.Check.cell_scheme = e.Report.Sweep.scheme;
              cell_program = cls.Litmus.Generate.cls_name;
              cell_f = e.Report.Sweep.f;
              cell_src_model = e.Report.Sweep.src_model;
              cell_tgt_model = e.Report.Sweep.tgt_model;
              cell_src = cls.Litmus.Generate.cls_rep;
            })
          entries)
      corpus.Litmus.Generate.classes
  in
  let rec chunks acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.concat (List.rev cur) :: acc)
    | c :: rest ->
        if k = classes_per_request then chunks (List.concat (List.rev cur) :: acc) [ c ] 1 rest
        else chunks acc (c :: cur) (k + 1) rest
  in
  let requests = Array.of_list (chunks [] [] 0 per_class) in
  { corpus; requests; cells = Array.fold_left (fun a r -> a + List.length r) 0 requests }

(* The closure-free part of a setup, for comparing repetitions. *)
let key s =
  Array.map
    (List.map (fun (c : Mapping.Check.cell) ->
         (c.Mapping.Check.cell_scheme, c.Mapping.Check.cell_program,
          Litmus.Generate.canonical_string c.Mapping.Check.cell_src)))
    s.requests

(* What a request's verdicts must reproduce on every rerun. *)
let verdicts reports =
  List.map
    (fun (r : Mapping.Check.report) ->
      (r.Mapping.Check.name, r.Mapping.Check.ok, r.Mapping.Check.src_behaviours,
       r.Mapping.Check.tgt_behaviours))
    reports

(* Known answers: every cell of a proven scheme refines. *)
let known_answer_failures reports =
  List.length (List.filter (fun (r : Mapping.Check.report) -> not r.Mapping.Check.ok) reports)

let jobs () = min 2 (Parallel.Pool.recommended ())

type result = {
  loop : Loop.result;  (** throughput in cells per second *)
  cells : int;  (** cells checked in measured passes *)
  behaviours : int;  (** source + target behaviours over those cells *)
  latencies_ns : float array;
      (** one per check_cells request, corrected for host speed *)
}

(* Closed-loop passes over every request; each pass starts with cold
   enumeration caches. *)
let timed ~seconds pool s =
  let t = Loop.tally (Array.length s.requests) in
  let cells = ref 0 and behaviours = ref 0 and lat = ref [] in
  let account i reports =
    let n = List.length reports in
    t.Loop.attempted <- t.Loop.attempted + n;
    let label = Printf.sprintf "request %d" i in
    let bad = known_answer_failures reports in
    if bad > 0 then Loop.fail ~n:bad t label (Printf.sprintf "%d cells did not refine" bad);
    if Loop.rerun t i (verdicts reports) <> None then
      Loop.fail ~n t label "nondeterministic: verdicts differ from the first run"
  in
  let pass ~measured m ns =
    Litmus.Enumerate.clear_caches ();
    let raw_ns = ref 0 and pass_cells = ref 0 and times = ref [] in
    Array.iteri
      (fun i req ->
        let t0 = Span.now () in
        let reports = Mapping.Check.check_cells ~pool req in
        let dt = Span.now () - t0 in
        let acc = ref 0. in
        Yardstick.charge m acc dt;
        Yardstick.charge m ns dt;
        account i reports;
        raw_ns := !raw_ns + dt;
        pass_cells := !pass_cells + List.length reports;
        if measured then begin
          times := acc :: !times;
          List.iter
            (fun (r : Mapping.Check.report) ->
              behaviours :=
                !behaviours + r.Mapping.Check.src_behaviours + r.Mapping.Check.tgt_behaviours)
            reports
        end;
        if Yardstick.due m then Yardstick.close m)
      s.requests;
    if measured then begin
      cells := !cells + !pass_cells;
      (* the accumulators are final once the pass's meter closes *)
      lat := List.rev_append !times !lat
    end;
    (!pass_cells, !raw_ns)
  in
  let loop = Loop.run ~seconds t pass in
  {
    loop;
    cells = !cells;
    behaviours = !behaviours;
    latencies_ns = Array.of_list (List.map ( ! ) !lat);
  }

(* ------------------------------------------------------------------ *)
(* Traced run. *)

let model_key (m : Axiom.Model.t) =
  match m.Axiom.Model.name with
  | "x86-TSO" -> "x86_tso"
  | "TCG-IR" -> "tcg"
  | "Arm-Cats (original)" -> "arm_cats_orig"
  | "Arm-Cats (corrected)" -> "arm_cats_fix"
  | other -> String.map (fun c -> if c = ' ' then '_' else c) other

let model_keys = [ "x86_tso"; "tcg"; "arm_cats_orig"; "arm_cats_fix" ]

let traced ~seconds ~seed sp pool =
  let id = Span.id sp in
  let s = make ~sp ~seed () in
  let cells = List.concat (Array.to_list s.requests) in
  (* Transforms, and the distinct (program, models) enumeration jobs
     the planner would form. *)
  let i_tr = id "mapping.transform" in
  let jobs = Hashtbl.create 1024 and order = ref [] in
  let need (m : Axiom.Model.t) p =
    match Hashtbl.find_opt jobs p with
    | Some ms ->
        let same (m' : Axiom.Model.t) = m'.Axiom.Model.name = m.Axiom.Model.name in
        if not (List.exists same !ms) then ms := m :: !ms
    | None ->
        Hashtbl.add jobs p (ref [ m ]);
        order := p :: !order
  in
  List.iter
    (fun (c : Mapping.Check.cell) ->
      let tgt =
        Span.with_ sp i_tr ~units:1. (fun () -> c.Mapping.Check.cell_f c.Mapping.Check.cell_src)
      in
      need c.Mapping.Check.cell_src_model c.Mapping.Check.cell_src;
      need c.Mapping.Check.cell_tgt_model tgt)
    cells;
  let jobs_list = List.rev_map (fun p -> (p, List.rev !(Hashtbl.find jobs p))) !order in
  (* Candidate enumeration and per-model consistency checks, as far as
     half the budget allows (at least one program). *)
  let i_cand = id "enumerate.candidates" in
  let accepts = Hashtbl.create 8 in
  let half = Span.now () + (seconds * 500_000_000) in
  let rec enumerate first = function
    | (p, models) :: rest when first || Span.now () < half ->
        let cands = Span.with_ sp i_cand (fun () -> Litmus.Enumerate.candidates p) in
        Span.add_units sp i_cand (float_of_int (List.length cands));
        Span.add_units sp (id "enumerate.programs") 1.;
        List.iter
          (fun (m : Axiom.Model.t) ->
            let key = model_key m in
            let i = id ("axiom." ^ key) in
            List.iter
              (fun (x, _) ->
                Span.enter sp i;
                let ok = m.Axiom.Model.consistent x in
                Span.leave sp ~units:1.;
                if ok then
                  Hashtbl.replace accepts key
                    (1 + Option.value ~default:0 (Hashtbl.find_opt accepts key)))
              cands)
          models;
        enumerate false rest
    | _ -> ()
  in
  enumerate true jobs_list;
  (* Pruned multi-model enumeration, cold. *)
  Litmus.Enumerate.clear_caches ();
  let i_beh = id "enumerate.behaviours_many" in
  List.iter
    (fun (p, models) ->
      ignore (Span.with_ sp i_beh ~units:1. (fun () -> Litmus.Enumerate.behaviours_many models p)))
    jobs_list;
  (* The planned check itself, untraced then traced, both cold. *)
  let pass traced_pass =
    Litmus.Enumerate.clear_caches ();
    let h0, m0 = Litmus.Enumerate.cache_stats () in
    let busy = ref 0. and strag = ref 0. and wall = ref 0. in
    let all = ref [] and times = ref [] in
    let t0 = Span.now () in
    Array.iter
      (fun req ->
        let c0 = Span.now () in
        let reports =
          if traced_pass then
            Span.with_ sp (id "check.check_cells") ~units:(float_of_int (List.length req))
              (fun () -> Mapping.Check.check_cells ~pool req)
          else Mapping.Check.check_cells ~pool req
        in
        let w = float_of_int (Span.now () - c0) /. 1e3 in
        let stats = Parallel.Pool.batch_stats pool in
        let domains = Parallel.Pool.workers_spawned pool + 1 in
        let per_dom = Array.make domains 0. in
        List.iter
          (fun (c : Parallel.Pool.chunk_stat) ->
            let d = c.Parallel.Pool.c_domain mod domains in
            per_dom.(d) <- per_dom.(d) +. c.Parallel.Pool.c_us)
          stats;
        let total = Array.fold_left ( +. ) 0. per_dom in
        if total > 0. then begin
          busy := !busy +. (total /. float_of_int domains);
          let mean = total /. float_of_int domains in
          strag := !strag +. (w *. Array.fold_left Float.max 0. per_dom /. mean)
        end;
        wall := !wall +. w;
        times := w :: !times;
        all := List.rev_append reports !all)
      s.requests;
    let ns = Span.now () - t0 in
    let h1, m1 = Litmus.Enumerate.cache_stats () in
    (ns, List.rev !all, (h1 - h0, m1 - m0), !busy /. !wall, !strag /. !wall, !times)
  in
  let untraced_ns, untraced_reports, _, _, _, request_us = pass false in
  let traced_ns, reports, (hits, misses), busy, straggler, _ = pass true in
  let failed =
    known_answer_failures reports
    + if verdicts reports = verdicts untraced_reports then 0 else List.length reports
  in
  let ratio a b = if b = 0. then 0. else a /. b in
  let per name = ratio (Span.self_ns sp name) (Span.units sp name) in
  let progs = Span.units sp "enumerate.programs" in
  let axiom =
    List.concat_map
      (fun key ->
        let n = Span.units sp ("axiom." ^ key) in
        [
          ("axiom." ^ key ^ ".ns_per_check", per ("axiom." ^ key), "ns");
          ( "axiom." ^ key ^ ".accept_ratio",
            ratio (float_of_int (Option.value ~default:0 (Hashtbl.find_opt accepts key))) n,
            "ratio" );
        ])
      model_keys
  in
  let metrics =
    [
      ("generate.ns_per_prog", per "generate", "ns");
      ("generate.dedup_ratio", Litmus.Generate.dedup_ratio s.corpus, "ratio");
      ("mapping.transform_ns_per_prog", per "mapping.transform", "ns");
      ( "enumerate.candidates_per_prog",
        ratio (Span.units sp "enumerate.candidates") progs,
        "count" );
      ("enumerate.ns_per_candidate", per "enumerate.candidates", "ns");
      ("enumerate.behaviours_ns_per_prog", per "enumerate.behaviours_many", "ns");
      ( "enumerate.cache_hit_ratio",
        ratio (float_of_int hits) (float_of_int (hits + misses)),
        "ratio" );
    ]
    @ axiom
    @ [
        ("check.ns_per_cell", per "check.check_cells", "ns");
        ("pool.busy_ratio", busy, "ratio");
        ("pool.straggler_ratio", straggler, "ratio");
        ("latency_us_p90", Stats.percentile 0.9 (Array.of_list request_us), "us");
        ( "trace.overhead_ratio",
          ratio (float_of_int traced_ns) (float_of_int untraced_ns),
          "ratio" );
      ]
  in
  (List.length reports, failed, metrics)
