module En = Litmus.Enumerate
module X = Axiom.Execution

type entry = {
  scheme : string;
  f : Litmus.Ast.prog -> Litmus.Ast.prog;
  src_model : Axiom.Model.t;
  tgt_model : Axiom.Model.t;
  corpus : (string * Litmus.Ast.prog) list;
}

type cell = {
  scheme : string;
  program : string;
  report : Mapping.Check.report;
  witnesses : Mapping.Witness.t list;
  shrunk : Litmus.Ast.prog option;
}

(* The bench sweep's scheme table (bench/main.ml) plus the paper's §3.2
   FMR counterexample as a pseudo-scheme: FMR is an IR transformation
   bug, not a mapping bug, but its refinement check has the same shape —
   source and target are both TCG programs, the "mapping" is one
   application of the unsound RAW rewrite. *)
let default_entries () =
  let open Mapping.Schemes in
  let x86 = Axiom.X86_tso.model in
  let tcg = Axiom.Tcg_model.model in
  let arm_orig = Axiom.Arm_cats.model Axiom.Arm_cats.Original in
  let arm_fix = Axiom.Arm_cats.model Axiom.Arm_cats.Corrected in
  let rmw2_fe, rmw2_be = risotto_rmw2_preset in
  let casal_fe, casal_be = risotto_casal_preset in
  let qemu_fe, qemu_be = qemu_preset in
  let corpus = Litmus.Catalog.mapping_corpus in
  let mk scheme f src_model tgt_model =
    { scheme; f; src_model; tgt_model; corpus }
  in
  let raw_fmr =
    let apply_raw p =
      match Mapping.Transform.applications Mapping.Transform.Raw p with
      | t :: _ -> t
      | [] -> p
    in
    {
      scheme = "transform-raw";
      f = apply_raw;
      src_model = tcg;
      tgt_model = tcg;
      corpus = [ ("FMR", Litmus.Catalog.fmr_tcg_src) ];
    }
  in
  [
    mk "fig7a/x86->tcg" (x86_to_tcg Risotto_frontend) x86 tcg;
    mk "fig2/x86->tcg" (x86_to_tcg Qemu_frontend) x86 tcg;
    mk "qemu-gcc10/arm-fix" (x86_to_arm qemu_fe qemu_be) x86 arm_fix;
    mk "qemu-gcc9/arm-fix"
      (x86_to_arm Qemu_frontend { lowering = `Qemu; rmw = Helper_gcc9 })
      x86 arm_fix;
    mk "risotto-rmw2/arm-orig" (x86_to_arm rmw2_fe rmw2_be) x86 arm_orig;
    mk "risotto-rmw2/arm-fix" (x86_to_arm rmw2_fe rmw2_be) x86 arm_fix;
    mk "risotto-casal/arm-orig" (x86_to_arm casal_fe casal_be) x86 arm_orig;
    mk "risotto-casal/arm-fix" (x86_to_arm casal_fe casal_be) x86 arm_fix;
    mk "armcats-direct/arm-orig" x86_to_arm_direct_armcats x86 arm_orig;
    mk "armcats-direct/arm-fix" x86_to_arm_direct_armcats x86 arm_fix;
    mk "no-fences/arm-fix"
      (x86_to_arm No_fences_frontend { lowering = `Risotto; rmw = Risotto_rmw1 })
      x86 arm_fix;
    raw_fmr;
  ]

let all_ok cells = List.for_all (fun c -> c.report.Mapping.Check.ok) cells
let failing cells = List.filter (fun c -> not c.report.Mapping.Check.ok) cells

(* ------------------------------------------------------------------ *)
(* JSON artifacts *)

let json_of_behaviour (b : En.behaviour) =
  Json.Obj
    [
      ( "mem",
        Json.List
          (List.map
             (fun (loc, v) ->
               Json.Obj [ ("loc", Json.String loc); ("value", Json.Int v) ])
             b.En.mem) );
      ( "regs",
        Json.List
          (List.map
             (fun ((tid, reg), v) ->
               Json.Obj
                 [
                   ("tid", Json.Int tid);
                   ("reg", Json.String reg);
                   ("value", Json.Int v);
                 ])
             b.En.regs) );
    ]

let json_of_rel r =
  Json.List
    (List.map
       (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ])
       (Relalg.Rel.to_list r))

let json_of_execution (x : X.t) =
  Json.Obj
    [
      ( "events",
        Json.List
          (List.map
             (fun (e : Axiom.Event.t) ->
               Json.Obj
                 [
                   ("id", Json.Int e.Axiom.Event.id);
                   ("tid", Json.Int e.Axiom.Event.tid);
                   ( "label",
                     Json.String
                       (Format.asprintf "%a" Axiom.Event.pp_label
                          e.Axiom.Event.label) );
                 ])
             (List.sort
                (fun (a : Axiom.Event.t) b ->
                  compare a.Axiom.Event.id b.Axiom.Event.id)
                x.X.events)) );
      ("po", json_of_rel x.X.po);
      ("rf", json_of_rel x.X.rf);
      ("co", json_of_rel x.X.co);
      ("fr", json_of_rel (X.fr x));
    ]

let json_of_verdict = function
  | Axiom.Explain.Consistent ->
      Json.Obj [ ("consistent", Json.Bool true) ]
  | Axiom.Explain.Violates { axiom; cycle } ->
      Json.Obj
        [
          ("axiom", Json.String axiom);
          ("cycle", Json.List (List.map (fun i -> Json.Int i) cycle));
        ]

(* Witness artifact envelope: same leading fields as the BENCH_*.json
   envelope, so one schema check covers both artifact families. *)
let witness_json (c : cell) (w : Mapping.Witness.t) =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("section", Json.String "witness");
      ("scheme", Json.String c.scheme);
      ("program", Json.String c.program);
      ("behaviour", json_of_behaviour w.Mapping.Witness.behaviour);
      ("target", json_of_execution w.Mapping.Witness.target);
      ( "forbidden",
        match w.Mapping.Witness.forbidden with
        | Some x -> json_of_execution x
        | None -> Json.Null );
      ( "violations",
        Json.List (List.map json_of_verdict w.Mapping.Witness.violations) );
      ( "nearest_behaviour",
        match w.Mapping.Witness.nearest with
        | Some (_, b) -> json_of_behaviour b
        | None -> Json.Null );
      ( "shrunk_instructions",
        match c.shrunk with
        | Some p -> Json.Int (Mapping.Witness.instruction_count p)
        | None -> Json.Null );
    ]

(* ------------------------------------------------------------------ *)
(* Journaled (resumable) sweeps.

   Each completed (scheme, program) cell appends one record to a
   {!Parallel.Frontier} journal: key = scheme ^ "\x1f" ^ program, value
   = the JSON-encoded verdict plus the cell's coverage deltas.  On
   resume, journaled cells are replayed — report rebuilt, coverage
   deltas merged via [Coverage.add] — and only the remainder is
   computed, each cell under {!Parallel.Supervise} so a wedged or
   poisoned cell becomes a typed failure instead of hanging the sweep.

   Witnesses and shrunk counterexamples are {e not} journaled: they are
   a deterministic function of (scheme, program) and are recomputed for
   failing cells on both the compute and the replay path, which is what
   makes a resumed report byte-identical to an uninterrupted one. *)

let cell_key scheme program = scheme ^ "\x1f" ^ program

(* -------- verdict record codec -------- *)

exception Bad_record of string

let jfail fmt = Printf.ksprintf (fun m -> raise (Bad_record m)) fmt
let jint = function Json.Int n -> n | _ -> jfail "expected int"
let jstr = function Json.String s -> s | _ -> jfail "expected string"
let jbool = function Json.Bool b -> b | _ -> jfail "expected bool"
let jlist = function Json.List l -> l | _ -> jfail "expected list"

let jfield name j =
  match Json.member name j with
  | Some v -> v
  | None -> jfail "missing field %S" name

let behaviour_of_json j =
  {
    En.mem =
      List.map
        (fun m -> (jstr (jfield "loc" m), jint (jfield "value" m)))
        (jlist (jfield "mem" j));
    En.regs =
      List.map
        (fun r ->
          ( (jint (jfield "tid" r), jstr (jfield "reg" r)),
            jint (jfield "value" r) ))
        (jlist (jfield "regs" j));
  }

let verdict_to_string (r : Mapping.Check.report)
    (deltas : (Coverage.key * int) list) =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool r.Mapping.Check.ok);
         ("src_behaviours", Json.Int r.Mapping.Check.src_behaviours);
         ("tgt_behaviours", Json.Int r.Mapping.Check.tgt_behaviours);
         ( "extra",
           Json.List (List.map json_of_behaviour r.Mapping.Check.extra) );
         ( "cov",
           Json.List
             (List.map
                (fun ((k : Coverage.key), n) ->
                  Json.Obj
                    [
                      ("model", Json.String k.Coverage.model);
                      ("axiom", Json.String k.Coverage.axiom);
                      ("count", Json.Int n);
                    ])
                deltas) );
       ])

let verdict_of_string ~scheme ~program s =
  match Json.of_string s with
  | Error msg -> jfail "unparsable verdict record: %s" msg
  | Ok j ->
      let report =
        {
          Mapping.Check.name = Printf.sprintf "%s: %s" scheme program;
          ok = jbool (jfield "ok" j);
          src_behaviours = jint (jfield "src_behaviours" j);
          tgt_behaviours = jint (jfield "tgt_behaviours" j);
          extra = List.map behaviour_of_json (jlist (jfield "extra" j));
        }
      in
      let deltas =
        List.map
          (fun d ->
            ( {
                Coverage.scheme;
                program;
                model = jstr (jfield "model" d);
                axiom = jstr (jfield "axiom" d);
              },
              jint (jfield "count" d) ))
          (jlist (jfield "cov" j))
      in
      (report, deltas)


(* -------- the runner -------- *)

let cells entries =
  List.concat_map
    (fun (e : entry) ->
      List.map
        (fun (program, src) ->
          {
            Mapping.Check.cell_scheme = e.scheme;
            cell_program = program;
            cell_f = e.f;
            cell_src_model = e.src_model;
            cell_tgt_model = e.tgt_model;
            cell_src = src;
          })
        e.corpus)
    entries

type shard_stat = {
  shard_index : int;  (* 1-based *)
  shard_cells : int;
  shard_new_pairs : int;  (* (model, axiom) pairs first seen in this shard *)
}

type outcome = {
  cells : cell list;
  failures : (string * string * Parallel.Supervise.failure) list;
  replayed : int;
  computed : int;
  recovery : Parallel.Frontier.recovery;
  shards : shard_stat list;
  saturated_after : int option;
}

let rec take_split n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: rest ->
        let h, t = take_split (n - 1) rest in
        (x :: h, t)

(* One pipeline for every sweep.  Cells are taken in fixed-size shards;
   within a shard each cell is replayed from the journal or computed,
   the computed ones as one supervised (optionally pooled) batch, and
   the shard's verdicts are then journaled and merged in canonical
   order — the shard is the unit of crash-resumability, the cell stays
   the unit of verdict identity.  Without a journal nothing replays and
   nothing is appended, so the plain sweep is the same loop. *)
let run ?(capture = false) ?coverage ?(policy = Parallel.Supervise.default) ?pool ?(shard_size = 1)
    ?(probe_targets = false) ?journal ?journal_chaos entries =
  let fr, recovery =
    match journal with
    | None ->
        (None, { Parallel.Frontier.entries = []; valid = 0; dropped_bytes = 0 })
    | Some path ->
        let fr, recovery = Parallel.Frontier.open_ ?chaos:journal_chaos path in
        (Some fr, recovery)
  in
  Fun.protect ~finally:(fun () -> Option.iter Parallel.Frontier.close fr)
  @@ fun () ->
  (* Last record wins, as checkpoint compaction would decide. *)
  let verdicts = Hashtbl.create 1024 in
  List.iter
    (fun (k, v) -> Hashtbl.replace verdicts k v)
    recovery.Parallel.Frontier.entries;
  let compute ((e : entry), program, src) =
    let tgt = e.f src in
    let report =
      Mapping.Check.refines ~src_model:e.src_model ~tgt_model:e.tgt_model ~src
        ~tgt
    in
    let report =
      {
        report with
        Mapping.Check.name = Printf.sprintf "%s: %s" e.scheme program;
      }
    in
    (* The verdict above comes from the untouched default path; the
       coverage probe is additive.  It records quietly into a scratch
       table per attempt, so a retried attempt re-probes from zero and
       only the committing attempt's delta is merged — exactly-once
       accounting under retry and replay.  Generated programs are where
       the target models' axioms get exercised: [probe_targets]
       classifies the target side's rejected candidates too. *)
    let deltas =
      match coverage with
      | None -> []
      | Some _ ->
          let scratch = Coverage.create () in
          let probe model p =
            ignore
              (En.behaviours_probed
                 ~on_reject:(fun x ->
                   Coverage.record ~quiet:true scratch ~scheme:e.scheme
                     ~program ~model x)
                 model p)
          in
          probe e.src_model src;
          if probe_targets then probe e.tgt_model tgt;
          Coverage.counts scratch
    in
    (report, deltas)
  in
  (* Witness decoration is recomputed on both paths, never journaled:
     deterministic, so replay stays byte-identical. *)
  let decorate (e : entry) src report =
    if capture && not report.Mapping.Check.ok then
      ( Mapping.Witness.capture ~src_model:e.src_model ~tgt_model:e.tgt_model
          ~src ~tgt:(e.f src) report,
        Some
          (Mapping.Witness.shrink ~scheme:e.f ~src_model:e.src_model
             ~tgt_model:e.tgt_model src) )
    else ([], None)
  in
  let replayed = ref 0 and computed = ref 0 in
  let failures = ref [] and written = ref [] in
  let seen_pairs = Hashtbl.create 64 in
  let run_shard idx shard =
    let prepared =
      List.map
        (fun (((e : entry), program, _) as c) ->
          let key = cell_key e.scheme program in
          match Hashtbl.find_opt verdicts key with
          | None -> (c, key, None)
          | Some v -> (
              match verdict_of_string ~scheme:e.scheme ~program v with
              | rd -> (c, key, Some (rd, v))
              | exception Bad_record _ ->
                  (* A record the CRC accepted but the codec cannot read
                     (e.g. written by an older build): recompute it. *)
                  (c, key, None)))
        shard
    in
    let results =
      Queue.of_seq
        (List.to_seq
           (Parallel.Supervise.map ?pool policy compute
              (List.filter_map
                 (fun (c, _, replay) ->
                   if Option.is_none replay then Some c else None)
                 prepared)))
    in
    let new_pairs = ref 0 in
    let commit ((e : entry), program, src) key (report, deltas) value =
      written := (key, value) :: !written;
      Option.iter
        (fun cov ->
          List.iter
            (fun ((k : Coverage.key), n) ->
              Coverage.add cov k n;
              let pair = (k.Coverage.model, k.Coverage.axiom) in
              if not (Hashtbl.mem seen_pairs pair) then begin
                Hashtbl.add seen_pairs pair ();
                incr new_pairs
              end)
            deltas)
        coverage;
      let witnesses, shrunk = decorate e src report in
      Some { scheme = e.scheme; program; report; witnesses; shrunk }
    in
    let cells =
      List.filter_map
        (fun (((e : entry), program, _) as c, key, replay) ->
          match replay with
          | Some (rd, v) ->
              incr replayed;
              commit c key rd v
          | None -> (
              match Queue.pop results with
              | Ok ((report, deltas) as rd) ->
                  incr computed;
                  (* Journal before merging: if the append tears (chaos
                     or crash), the cell is simply recomputed on resume
                     — verdicts are never lost, never doubled. *)
                  let value =
                    match fr with
                    | None -> ""
                    | Some fr ->
                        let value = verdict_to_string report deltas in
                        Parallel.Frontier.append fr ~key ~value;
                        value
                  in
                  commit c key rd value
              | Error failure ->
                  (* No journal record: a resumed run retries the cell,
                     so a transient environment converges to the
                     fault-free verdict table. *)
                  failures := (e.scheme, program, failure) :: !failures;
                  None))
        prepared
    in
    ( cells,
      {
        shard_index = idx;
        shard_cells = List.length shard;
        shard_new_pairs = !new_pairs;
      } )
  in
  let rec shard_loop idx acc = function
    | [] -> List.rev acc
    | rest ->
        let shard, rest = take_split (max 1 shard_size) rest in
        shard_loop (idx + 1) (run_shard idx shard :: acc) rest
  in
  let per_shard =
    shard_loop 1 []
      (List.concat_map
         (fun (e : entry) ->
           List.map (fun (program, src) -> (e, program, src)) e.corpus)
         entries)
  in
  (* Compact: one record per cell, canonical sweep order — a journal
     grown across many interrupted runs shrinks back to its minimum. *)
  Option.iter
    (fun fr -> Parallel.Frontier.checkpoint fr (List.rev !written))
    fr;
  let shards = List.map snd per_shard in
  let saturated_after =
    match coverage with
    | None -> None
    | Some _ ->
        let last_new =
          List.fold_left
            (fun acc s -> if s.shard_new_pairs > 0 then s.shard_index else acc)
            0 shards
        in
        if last_new < List.length shards then Some last_new else None
  in
  {
    cells = List.concat_map fst per_shard;
    failures = List.rev !failures;
    replayed = !replayed;
    computed = !computed;
    recovery;
    shards;
    saturated_after;
  }

(* ------------------------------------------------------------------ *)
(* Generated corpora: 10⁴ programs dedup into a few thousand shape
   classes checked under a handful of schemes, swept by [run] in large
   shards.  When late shards stop contributing new (model, axiom)
   coverage pairs, the corpus has saturated the discriminating-axiom
   coverage the matrix can report. *)

let default_generated_schemes =
  [ "fig7a/x86->tcg"; "risotto-rmw2/arm-orig"; "risotto-rmw2/arm-fix" ]

let generated_entries ?config ?(schemes = default_generated_schemes) ~seed n =
  let c = Litmus.Generate.corpus ?config ~seed n in
  let corpus =
    List.map
      (fun (cl : Litmus.Generate.cls) -> (cl.cls_name, cl.cls_rep))
      c.classes
  in
  let entries =
    List.filter_map
      (fun (e : entry) ->
        if List.mem e.scheme schemes then Some { e with corpus } else None)
      (default_entries ())
  in
  (c, entries)
