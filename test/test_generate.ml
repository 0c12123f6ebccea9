(* The generated-corpus pipeline: seeded determinism, canonicalization
   soundness, memoized verdicts, sharded resumable sweeps and
   pool-vs-sequential identity at batch scale. *)

module Ast = Litmus.Ast
module G = Litmus.Generate
module En = Litmus.Enumerate
module Check = Mapping.Check
module P = Parallel.Pool
module Sweep = Report.Sweep

let x86 = Axiom.X86_tso.model

let fig7a_entry () =
  List.find
    (fun (e : Sweep.entry) -> e.scheme = "fig7a/x86->tcg")
    (Sweep.default_entries ())

let tmpdir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* A semantics-preserving obfuscation: reverse the thread order, permute
   location names, prefix register names.  Canonicalization must erase
   all three. *)
let obfuscate (p : Ast.prog) =
  let permute_loc = function
    | "x" -> "y"
    | "y" -> "z"
    | "z" -> "x"
    | l -> l
  in
  let rec exp = function
    | Ast.Int n -> Ast.Int n
    | Ast.Reg r -> Ast.Reg ("q" ^ r)
    | Ast.Add (a, b) -> Ast.Add (exp a, exp b)
    | Ast.Sub (a, b) -> Ast.Sub (exp a, exp b)
    | Ast.Mul (a, b) -> Ast.Mul (exp a, exp b)
    | Ast.Xor (a, b) -> Ast.Xor (exp a, exp b)
    | Ast.Eq (a, b) -> Ast.Eq (exp a, exp b)
    | Ast.Ne (a, b) -> Ast.Ne (exp a, exp b)
  in
  let rec instr = function
    | Ast.Load l -> Ast.Load { l with reg = "q" ^ l.reg; loc = permute_loc l.loc }
    | Ast.Store s ->
        Ast.Store { s with loc = permute_loc s.loc; value = exp s.value }
    | Ast.Cas c ->
        Ast.Cas
          {
            c with
            reg = Option.map (fun r -> "q" ^ r) c.reg;
            loc = permute_loc c.loc;
            expect = exp c.expect;
            desired = exp c.desired;
          }
    | Ast.Fence f -> Ast.Fence f
    | Ast.Assign (r, e) -> Ast.Assign ("q" ^ r, exp e)
    | Ast.If { cond; then_; else_ } ->
        Ast.If
          {
            cond = exp cond;
            then_ = List.map instr then_;
            else_ = List.map instr else_;
          }
  in
  {
    Ast.name = p.name ^ "-obf";
    init = List.map (fun (l, v) -> (permute_loc l, v)) p.init;
    threads =
      List.mapi
        (fun i (t : Ast.thread) -> { Ast.tid = i; code = List.map instr t.code })
        (List.rev p.threads);
  }

(* -------- seeded determinism -------- *)

let test_determinism () =
  let a = G.generate ~seed:42 300 and b = G.generate ~seed:42 300 in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iter2
    (fun p q ->
      Alcotest.(check string)
        "same canonical rendering" (G.canonical_string p)
        (G.canonical_string q))
    a b;
  let c = G.generate ~seed:43 300 in
  Alcotest.(check bool)
    "different seed differs somewhere" true
    (List.exists2
       (fun p q -> G.canonical_string p <> G.canonical_string q)
       a c);
  let c1 = G.corpus ~seed:42 300 and c2 = G.corpus ~seed:42 300 in
  Alcotest.(check (list string))
    "same class names"
    (List.map (fun (c : G.cls) -> c.cls_name) c1.classes)
    (List.map (fun (c : G.cls) -> c.cls_name) c2.classes);
  Alcotest.(check bool)
    "dedup actually collapses" true
    (List.length c1.classes < c1.requested)

(* -------- canonicalization soundness -------- *)

let test_canonical_soundness () =
  let progs = G.generate ~seed:7 120 in
  List.iter
    (fun p ->
      let q = obfuscate p in
      Alcotest.(check string)
        "canonical erases renaming and thread order"
        (G.canonical_string p) (G.canonical_string q);
      Alcotest.(check string)
        "canonical is idempotent" (G.canonical_string p)
        (G.canonical_string (G.canonical p)))
    progs;
  (* Behaviour-set cardinality is renaming-invariant: the canonical
     representative's verdict speaks for the class. *)
  List.iteri
    (fun i p ->
      if i < 25 then
        Alcotest.(check int)
          "behaviour count invariant under canonicalization"
          (List.length (En.behaviours x86 p))
          (List.length (En.behaviours x86 (G.canonical p))))
    progs

(* -------- memoized verdict parity -------- *)

let test_memo_parity () =
  Check.clear_memo ();
  let e = fig7a_entry () in
  let corpus = G.corpus ~seed:3 150 in
  let classes = corpus.classes in
  let named =
    List.map (fun (c : G.cls) -> (c.cls_name, c.cls_rep)) classes
  in
  let fresh =
    Check.check_scheme ~name:e.scheme e.f ~src_model:e.src_model
      ~tgt_model:e.tgt_model named
  in
  let memo =
    List.map
      (fun np ->
        Check.check_memo ~scheme:e.scheme ~f:e.f ~src_model:e.src_model
          ~tgt_model:e.tgt_model np)
      named
  in
  List.iter2
    (fun (a : Check.report) (b : Check.report) ->
      Alcotest.(check string) "name" a.name b.name;
      Alcotest.(check bool) "ok" a.ok b.ok;
      Alcotest.(check int) "src" a.src_behaviours b.src_behaviours;
      Alcotest.(check int) "tgt" a.tgt_behaviours b.tgt_behaviours)
    fresh memo;
  (* Serving the raw (pre-dedup) batch hits the memo for every program
     whose class is already checked. *)
  let progs = G.generate ~seed:3 150 in
  let h0, m0 = Check.memo_stats () in
  List.iteri
    (fun i p ->
      ignore
        (Check.check_memo ~scheme:e.scheme ~f:e.f ~src_model:e.src_model
           ~tgt_model:e.tgt_model
           (Printf.sprintf "p%d" i, p)))
    progs;
  let h1, m1 = Check.memo_stats () in
  Alcotest.(check int) "no new verdicts computed" m0 m1;
  Alcotest.(check int) "every program served from the memo" (h0 + 150) h1

(* -------- journaled generated-sweep resume parity -------- *)

let test_resume_parity () =
  let dir = tmpdir "risotto-gensweep" in
  let j1 = Filename.concat dir "full.journal" in
  let j2 = Filename.concat dir "resumed.journal" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ j1; j2 ];
  let _, entries = Sweep.generated_entries ~seed:11 120 in
  En.clear_caches ();
  let reference =
    Sweep.run ~shard_size:32 ~journal:j1 entries
  in
  (* Interrupted run: only the first scheme's cells complete... *)
  let partial_entries = [ List.hd entries ] in
  let _ =
    Sweep.run ~shard_size:32 ~journal:j2 partial_entries
  in
  (* ...then the resumed run replays them and computes the rest. *)
  En.clear_caches ();
  let resumed = Sweep.run ~shard_size:32 ~journal:j2 entries in
  let cells_of (g : Sweep.outcome) =
    List.map
      (fun (c : Sweep.cell) ->
        (c.scheme, c.program, c.report.Check.ok,
         c.report.Check.src_behaviours, c.report.Check.tgt_behaviours))
      g.cells
  in
  Alcotest.(check int)
    "resumed run replayed the journaled prefix"
    (List.length (List.hd entries).corpus)
    resumed.replayed;
  Alcotest.(check bool)
    "cell-for-cell parity with the uninterrupted run" true
    (cells_of reference = cells_of resumed);
  (* And a second resume replays everything, computing nothing. *)
  let again = Sweep.run ~shard_size:32 ~journal:j2 entries in
  Alcotest.(check int) "nothing left to compute" 0 again.computed;
  Alcotest.(check bool)
    "fully replayed run still identical" true
    (cells_of reference = cells_of again)

(* -------- injected journal tear in a sharded sweep -------- *)

let test_sharded_journal_tear () =
  let dir = tmpdir "risotto-gentear" in
  let j = Filename.concat dir "tear.journal" in
  (try Sys.remove j with Sys_error _ -> ());
  let _, entries = Sweep.generated_entries ~seed:11 120 in
  let sigs (g : Sweep.outcome) =
    List.map
      (fun (c : Sweep.cell) ->
        (c.scheme, c.program, c.report.Check.ok, c.report.Check.extra))
      g.cells
  in
  let reference = Sweep.run entries in
  (* The hook fires on the third append, inside the first shard. *)
  let appends = ref 0 in
  let journal_chaos () =
    incr appends;
    !appends = 3
  in
  (match Sweep.run ~shard_size:16 ~journal:j ~journal_chaos entries with
  | _ -> Alcotest.fail "a torn journal append must stop the sweep"
  | exception Parallel.Frontier.Injected_fault _ -> ());
  Alcotest.(check int) "hook polled up to the tearing append" 3 !appends;
  let resumed = Sweep.run ~shard_size:16 ~journal:j entries in
  Alcotest.(check int) "the two landed appends replay" 2 resumed.replayed;
  Alcotest.(check int)
    "every other cell computed"
    (List.length reference.cells - 2)
    resumed.computed;
  Alcotest.(check bool)
    "resumed cells equal the reference" true
    (sigs resumed = sigs reference);
  let keys =
    List.map fst (Parallel.Frontier.recover_file j).Parallel.Frontier.entries
  in
  Alcotest.(check int)
    "journal keys complete" (List.length reference.cells) (List.length keys);
  Alcotest.(check int)
    "journal keys unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* -------- coverage saturation accounting -------- *)

let test_saturation () =
  let dir = tmpdir "risotto-gensat" in
  let j = Filename.concat dir "sat.journal" in
  (try Sys.remove j with Sys_error _ -> ());
  let _, entries = Sweep.generated_entries ~seed:19 150 in
  let cov = Report.Coverage.create () in
  let g =
    Sweep.run ~coverage:cov ~probe_targets:true ~shard_size:25
      ~journal:j entries
  in
  let total_cells =
    List.fold_left (fun a (s : Sweep.shard_stat) -> a + s.shard_cells) 0
      g.shards
  in
  Alcotest.(check int)
    "shard stats cover every cell" total_cells
    (List.length g.cells);
  let total_new =
    List.fold_left (fun a (s : Sweep.shard_stat) -> a + s.shard_new_pairs) 0
      g.shards
  in
  let distinct_pairs =
    List.sort_uniq compare
      (List.map
         (fun ((k : Report.Coverage.key), _) -> (k.model, k.axiom))
         (Report.Coverage.counts cov))
  in
  Alcotest.(check int)
    "new-pair counts sum to the distinct (model, axiom) pairs"
    (List.length distinct_pairs) total_new;
  (* A corpus this size saturates the handful of discriminating axioms
     long before the last shard. *)
  (match g.saturated_after with
  | Some s ->
      Alcotest.(check bool) "saturation shard within range" true
        (s >= 0 && s < List.length g.shards)
  | None -> Alcotest.fail "expected saturation on a 150-program corpus")

(* -------- pool vs sequential identity on a 500-program batch -------- *)

let test_pool_identity () =
  let corpus = G.corpus ~seed:5 500 in
  let named =
    List.map (fun (c : G.cls) -> (c.cls_name, c.cls_rep)) corpus.classes
  in
  let schemes =
    List.filter
      (fun (e : Sweep.entry) ->
        List.mem e.scheme Sweep.default_generated_schemes)
      (Sweep.default_entries ())
  in
  let cells =
    List.concat_map
      (fun (e : Sweep.entry) ->
        List.map
          (fun (pname, src) ->
            {
              Check.cell_scheme = e.scheme;
              cell_program = pname;
              cell_f = e.f;
              cell_src_model = e.src_model;
              cell_tgt_model = e.tgt_model;
              cell_src = src;
            })
          named)
      schemes
  in
  (* Reference: the per-cell production primitive. *)
  let reference =
    List.map
      (fun (c : Check.cell) ->
        let r =
          Check.refines ~src_model:c.cell_src_model
            ~tgt_model:c.cell_tgt_model ~src:c.cell_src
            ~tgt:(c.cell_f c.cell_src)
        in
        { r with Check.name = c.cell_scheme ^ ": " ^ c.cell_program })
      cells
  in
  En.clear_caches ();
  let planned_seq = Check.check_cells cells in
  En.clear_caches ();
  let planned_pool = P.with_pool ~jobs:4 (fun pool -> Check.check_cells ~pool cells) in
  Alcotest.(check bool)
    "planner (sequential) matches per-cell reference" true
    (planned_seq = reference);
  Alcotest.(check bool)
    "planner (pool) matches per-cell reference" true
    (planned_pool = reference);
  (* The planner's whole point: strictly fewer enumerations than cells'
     naive 2-per-cell cost on a shared-target batch. *)
  En.clear_caches ();
  ignore (Check.check_cells cells);
  let _, misses = En.cache_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "shared enumeration (%d misses for %d cells)" misses
       (List.length cells))
    true
    (misses < 2 * List.length cells)

(* -------- force-spawned multi-domain pool still agrees -------- *)

let test_force_spawn_identity () =
  let corpus = G.corpus ~seed:23 120 in
  let named =
    List.map (fun (c : G.cls) -> (c.cls_name, c.cls_rep)) corpus.classes
  in
  let e = fig7a_entry () in
  let seq =
    Check.check_scheme ~name:e.scheme e.f ~src_model:e.src_model
      ~tgt_model:e.tgt_model named
  in
  let par =
    P.with_pool ~jobs:3 ~force_spawn:true (fun pool ->
        Check.check_scheme ~pool ~name:e.scheme e.f ~src_model:e.src_model
          ~tgt_model:e.tgt_model named)
  in
  Alcotest.(check bool) "cross-domain planner parity" true (seq = par)

let () =
  Alcotest.run "generate"
    [
      ( "generator",
        [
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "canonicalization soundness" `Quick
            test_canonical_soundness;
        ] );
      ( "memo",
        [ Alcotest.test_case "verdict memo parity" `Quick test_memo_parity ] );
      ( "sweep",
        [
          Alcotest.test_case "journaled resume parity" `Quick
            test_resume_parity;
          Alcotest.test_case "coverage saturation accounting" `Quick
            test_saturation;
          Alcotest.test_case "sharded journal tear resumes" `Quick
            test_sharded_journal_tear;
        ] );
      ( "pool",
        [
          Alcotest.test_case "500-program pool identity" `Quick
            test_pool_identity;
          Alcotest.test_case "force-spawn cross-domain parity" `Quick
            test_force_spawn_identity;
        ] );
    ]
