(** The refinement sweep behind the witness report: every (scheme,
    corpus program) refinement verdict, optionally decorated with
    captured witnesses, shrunk counterexamples and axiom-coverage
    accounting.

    Verdicts always come from the unmodified {!Mapping.Check.refines}
    path; witness capture, the coverage probe and the journal are
    additive and run only when asked for, so a plain [run] is
    observationally the bench's per-cell sweep. *)

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
  witnesses : Mapping.Witness.t list;  (** [] unless captured *)
  shrunk : Litmus.Ast.prog option;
      (** shrunk source counterexample, for failing cells when captured *)
}

(** The bench sweep's eleven schemes over the mapping corpus, plus the
    §3.2 FMR transformation counterexample as the pseudo-scheme
    ["transform-raw"] (source = target = TCG model, the mapping is one
    unsound RAW rewrite).  Known-failing cells: MPQ under qemu-gcc10 and
    fig2; MPQ/SB+rmws/SBQ/SBAL under qemu-gcc9; SBAL under the
    arm-orig direct/casal schemes; FMR under transform-raw. *)
val default_entries : unit -> entry list

val all_ok : cell list -> bool
val failing : cell list -> cell list

(** The {!Mapping.Check.cell}s of every (scheme, program) pair, in
    canonical (entries × corpus) order — the batch planner's input. *)
val cells : entry list -> Mapping.Check.cell list

(** {1 The sweep runner} *)

type shard_stat = {
  shard_index : int;  (** 1-based *)
  shard_cells : int;
  shard_new_pairs : int;
      (** (model, axiom) coverage pairs first seen in this shard *)
}

type outcome = {
  cells : cell list;  (** canonical (entries × corpus) order *)
  failures : (string * string * Parallel.Supervise.failure) list;
      (** (scheme, program, failure) of cells that timed out or were
          quarantined this run — not journaled, retried on resume *)
  replayed : int;  (** cells restored from the journal *)
  computed : int;  (** cells computed (and journaled) this run *)
  recovery : Parallel.Frontier.recovery;
      (** what opening the journal recovered (torn-tail statistics);
          empty without a journal *)
  shards : shard_stat list;
  saturated_after : int option;
      (** [Some s]: no shard after the [s]th discovered a new
          (model, axiom) pair — the corpus saturated the
          discriminating-axiom coverage.  [None]: still discovering in
          the final shard, or no coverage requested. *)
}

(** [run entries] checks every (scheme, program) cell with
    {!Mapping.Check.refines}.  Cells are taken in shards of
    [shard_size] (default 1); a shard's cells not already journaled run
    as one batch under [policy] via {!Parallel.Supervise.map} (on
    [pool] if given), so timeouts and quarantined cells surface in
    [failures] instead of aborting the sweep.

    - [capture] (default false): failing cells carry witnesses
      ({!Mapping.Witness.capture}) and a shrunk counterexample,
      recomputed on replay.
    - [coverage]: every source-program candidate rejected by the source
      model is accounted via {!Coverage}, exactly once per committed
      cell; with [probe_targets] the target side's rejected candidates
      under the target model too.
    - [journal]: crash safety.  Every computed cell appends a
      CRC-guarded verdict record (verdict + coverage deltas) to the
      {!Parallel.Frontier} journal in shard order; cells already
      journaled by an earlier interrupted run are replayed instead of
      recomputed, so the resumed result (and an HTML report rendered
      from it) is byte-identical to an uninterrupted run's.  The journal
      is checkpoint-compacted to canonical order on completion.
      [journal_chaos] is the [journal-write] chaos site hook
      ({!Parallel.Frontier.open_}); a firing hook tears the append and
      raises {!Parallel.Frontier.Injected_fault}, simulating a crash. *)
val run :
  ?capture:bool ->
  ?coverage:Coverage.t ->
  ?policy:Parallel.Supervise.policy ->
  ?pool:Parallel.Pool.t ->
  ?shard_size:int ->
  ?probe_targets:bool ->
  ?journal:string ->
  ?journal_chaos:(unit -> bool) ->
  entry list ->
  outcome

(** {1 Generated corpora}

    {!run} scaled to 10⁴+ QCheck-generated programs
    ({!Litmus.Generate}), deduped into shape classes and swept in large
    shards. *)

(** The schemes a generated sweep checks by default: the paper's
    verified x86→TCG frontend mapping and the corrected RMW lowering
    under both the original and fixed ARM models — sound schemes, so a
    clean generated sweep exits 0, and the two ARM cells share one
    enumeration per target program under the batch planner. *)
val default_generated_schemes : string list

(** [generated_entries ~seed n] generates [n] programs, dedups them
    into shape classes ({!Litmus.Generate.corpus}) and instantiates the
    named schemes (default {!default_generated_schemes}, resolved
    against {!default_entries}) over the class representatives. *)
val generated_entries :
  ?config:Litmus.Generate.config ->
  ?schemes:string list ->
  seed:int ->
  int ->
  Litmus.Generate.corpus * entry list

val json_of_behaviour : Litmus.Enumerate.behaviour -> Json.t
val json_of_execution : Axiom.Execution.t -> Json.t

(** Self-describing witness artifact with the common envelope
    ([schema_version], [section = "witness"], [scheme], [program], ...)
    shared with the BENCH_*.json files. *)
val witness_json : cell -> Mapping.Witness.t -> Json.t
