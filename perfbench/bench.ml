(* The repository benchmark: command-line entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --selftest

   Workloads: parsec-steady, cold-image, call-dispatch, refine-corpus
   (see perfbench/README.md).  Inputs are derived from the seed alone.
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones
   from a traced run (spans are also written to perfbench/out/). *)

let workloads = [ "parsec-steady"; "cold-image"; "call-dispatch"; "refine-corpus" ]

(* Set-up runs at least [setup_min_reps] times, and more (at most
   [setup_max_reps]) until [setup_min_s] seconds of it have run, so a
   short set-up still gives a steady median. *)
let setup_min_reps = 3
let setup_max_reps = 15
let setup_min_s = 3.

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench.exe --selftest";
  exit 2

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.)
            else go ()
      in
      let v = go () in
      close_in ic;
      v

(* Every per-layer metric, in report order.  A traced run reports all of
   them; layers its workload does not exercise read 0. *)
let per_layer : (string * string) list =
  let passes =
    List.concat_map
      (fun p ->
        let k = "pipeline." ^ p in
        [
          (k ^ ".ns_per_op", "ns");
          (k ^ ".words_per_op", "words");
          (k ^ ".ops_out_ratio", "ratio");
        ])
      [ "const_fold"; "dce"; "mem_elim"; "fence_merge" ]
  and axioms =
    List.concat_map
      (fun m ->
        [ ("axiom." ^ m ^ ".ns_per_check", "ns"); ("axiom." ^ m ^ ".accept_ratio", "ratio") ])
      Refine_wl.model_keys
  in
  [
    ("x86.decode.ns_per_insn", "ns");
    ("frontend.ns_per_insn", "ns");
    ("frontend.words_per_insn", "words");
    ("frontend.ops_per_insn", "count");
  ]
  @ passes
  @ [
      ("backend.ns_per_op", "ns");
      ("backend.words_per_op", "words");
      ("engine.translate_self_ns_per_block", "ns");
      ("engine.create_us", "us");
      ("pipeline.fences_kept_ratio", "ratio");
      ("backend.host_insns_per_op", "ratio");
      ("machine.host_insns_per_guest_insn", "ratio");
      ("engine.step_ns_per_block", "ns");
      ("engine.words_per_block", "words");
      ("machine.ns_per_host_insn", "ns");
      ("machine.words_per_host_insn", "words");
      ("mem.ns_per_access", "ns");
      ("mem.words_per_access", "words");
      ("engine.dispatch_self_ns_per_block", "ns");
      ("engine.chain_hit_ratio", "ratio");
      ("engine.jcache_hit_ratio", "ratio");
      ("engine.table_lookups_per_block", "ratio");
      ("generate.ns_per_prog", "ns");
      ("generate.dedup_ratio", "ratio");
      ("mapping.transform_ns_per_prog", "ns");
      ("enumerate.candidates_per_prog", "count");
      ("enumerate.ns_per_candidate", "ns");
      ("enumerate.behaviours_ns_per_prog", "ns");
      ("enumerate.cache_hit_ratio", "ratio");
    ]
  @ axioms
  @ [
      ("check.ns_per_cell", "ns");
      ("pool.busy_ratio", "ratio");
      ("pool.straggler_ratio", "ratio");
      ("latency_us_p90", "us");
      ("trace.overhead_ratio", "ratio");
      ("trace.span_cost_ns", "ns");
    ]

let emit ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    List.map
      (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0) attempted failed (String.concat ", " body)

(* Set-up timing.  [timed_setup ~key f] makes the inputs once and
   returns them with [median], which repeats the set-up and returns the
   median wall time of all repetitions, corrected for host speed like
   every other time.  Call [median] after the measured window, so the
   repetitions' garbage does not weigh on its peak RSS.  Every
   repetition must derive identical inputs from the seed; each is
   compared as it is made and dropped. *)
let timed_setup ~key f =
  let once () =
    (* every repetition starts from a heap without the last one's garbage *)
    Gc.full_major ();
    let r, ns = Yardstick.time f in
    (r, ns /. 1e9)
  in
  let r, t = once () in
  let median () =
    let k = key r in
    let times = ref [ t ] in
    while
      List.length !times < setup_max_reps
      && (List.length !times < setup_min_reps
         || List.fold_left ( +. ) 0. !times < setup_min_s)
    do
      let r', t' = once () in
      if key r' <> k then begin
        prerr_endline "setup is not deterministic: the same seed gave different inputs";
        exit 2
      end;
      times := t' :: !times
    done;
    Stats.median (Array.of_list !times)
  in
  (r, median)

(* Start the peak-RSS window: collect the set-up's garbage, then reset
   the kernel's high-water mark (VmHWM) to the current resident size, so
   [peak_rss_mb] covers the measured work on top of what the process
   holds when it starts: the inputs, and heap the runtime kept from
   making them.  Where the reset is not available, the mark covers the
   whole process. *)
let reset_peak_rss () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let engine_setup workload seed tick =
  let rng = Random.State.make [| seed; Hashtbl.hash workload |] in
  let progs =
    match workload with
    | "parsec-steady" -> Progs.parsec rng
    | "cold-image" -> Progs.cold rng
    | _ -> Progs.calls rng
  in
  tick ();
  let refs = List.map (fun (p : Progs.prog) -> Progs.reference ~tick p.Progs.image) progs in
  List.iter (fun p -> ignore (Engine_wl.run ~tick p)) (Progs.warmup ());
  (progs, refs)

let out_dir = Filename.concat "perfbench" "out"

(* Traced-run output: the workload's figures placed into the full
   per-layer list. *)
let emit_traced sp ~attempted ~failed metrics =
  let metrics = ("trace.span_cost_ns", sp.Span.overhead_ns, "ns") :: metrics in
  List.iter
    (fun (name, _, unit) ->
      if List.assoc_opt name per_layer <> Some unit then
        failwith ("per-layer metric not declared: " ^ name))
    metrics;
  emit ~attempted ~failed
    (List.map
       (fun (name, unit) ->
         let v = List.find_map (fun (n, v, _) -> if n = name then Some v else None) metrics in
         (name, Option.value ~default:0. v, unit))
       per_layer)

(* A traced run: spans in memory, written out at the end. *)
let traced workload f =
  let sp = Span.create ~cap:(1 lsl 18) in
  Span.calibrate sp;
  let attempted, failed, metrics = f sp in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Span.write sp (Filename.concat out_dir (Printf.sprintf "trace-%s.tsv" workload));
  Printf.printf "traced: %d attempted, %d spans (%.1f ns per empty span)\n" attempted
    (Span.spans_recorded sp) sp.Span.overhead_ns;
  emit_traced sp ~attempted ~failed metrics

(* An untraced run's end-to-end metrics; [lat_ns] are the individual
   latency samples. *)
let emit_e2e (l : Loop.result) ~lat_ns ~cost ~setup_s ~peak_rss =
  emit ~attempted:l.Loop.attempted ~failed:l.Loop.failed
    [
      ("throughput_per_s", Stats.median l.Loop.rates, "1/s");
      ("latency_us_p50", Stats.percentile 0.5 lat_ns /. 1e3, "us");
      ("model_cost_per_unit", cost, "cost/unit");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", peak_rss, "MB");
    ]

let run_engine workload ~seed ~seconds ~trace =
  let (progs, refs), setup_median = timed_setup ~key:Fun.id (engine_setup workload seed) in
  Printf.printf "%s: %d programs, %d guest instructions per pass\n%!" workload
    (List.length progs)
    (List.fold_left (fun a (r : Progs.reference) -> a + r.Progs.ref_steps) 0 refs);
  if trace then traced workload (fun sp -> Engine_wl.traced ~seconds sp progs refs)
  else begin
    reset_peak_rss ();
    let r = Engine_wl.timed ~seconds progs refs in
    let peak_rss = peak_rss_mb () in
    let setup_s = setup_median () in
    let l = r.Engine_wl.loop and lat = r.Engine_wl.latencies_ns in
    let cpi = float_of_int r.Engine_wl.cycles /. float_of_int r.Engine_wl.insns in
    Printf.printf
      "%s = %.0f (median of %d passes; %.0f uncorrected); first_block_us p50 = %.2f, p90 = \
       %.2f, p99 = %.2f over %d samples; model_cycles_per_insn = %.4f; setup %.3f s\n"
      (if workload = "cold-image" then "translated_insns_per_s" else "guest_insns_per_s")
      (Stats.median l.Loop.rates) l.Loop.passes (Stats.median l.Loop.raw_rates)
      (Stats.percentile 0.5 lat /. 1e3) (Stats.percentile 0.9 lat /. 1e3)
      (Stats.percentile 0.99 lat /. 1e3) (Array.length lat) cpi setup_s;
    emit_e2e l ~lat_ns:lat ~cost:cpi ~setup_s ~peak_rss
  end

let run_refine ~seed ~seconds ~trace =
  Parallel.Pool.with_pool ~jobs:(Refine_wl.jobs ()) (fun pool ->
      if trace then
        (* The traced run generates its own corpus, under a span. *)
        traced "refine-corpus" (fun sp -> Refine_wl.traced ~seconds ~seed sp pool)
      else begin
        let s, setup_median =
          timed_setup ~key:Refine_wl.key (fun _tick -> Refine_wl.make ~seed ())
        in
        Printf.printf "refine-corpus: %d programs -> %d classes, %d cells in %d requests\n%!"
          Refine_wl.programs
          (List.length s.Refine_wl.corpus.Litmus.Generate.classes)
          s.Refine_wl.cells (Array.length s.Refine_wl.requests);
        reset_peak_rss ();
        let r = Refine_wl.timed ~seconds pool s in
        let peak_rss = peak_rss_mb () in
        let setup_s = setup_median () in
        let l = r.Refine_wl.loop and lat = r.Refine_wl.latencies_ns in
        let bpv = float_of_int r.Refine_wl.behaviours /. float_of_int r.Refine_wl.cells in
        Printf.printf
          "verdicts_per_s = %.1f (median of %d passes; %.1f uncorrected); request_us p50 = \
           %.0f, p90 = %.0f over %d requests; behaviours_per_verdict = %.4f; setup %.3f s\n"
          (Stats.median l.Loop.rates) l.Loop.passes (Stats.median l.Loop.raw_rates)
          (Stats.percentile 0.5 lat /. 1e3)
          (Stats.percentile 0.9 lat /. 1e3)
          (Array.length lat) bpv setup_s;
        emit_e2e l ~lat_ns:lat ~cost:bpv ~setup_s ~peak_rss
      end)

(* The benchmark's own test: each oracle must accept a correct result
   and reject a corrupted one.  Exits 1 if any check misbehaves. *)
let selftest () =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let caught = Option.is_some and passed = Option.is_none in
  (* Engine oracle. *)
  List.iter (fun p -> ignore (Engine_wl.run p)) (Progs.warmup ());
  let spec = (List.hd Harness.Parsec.all).Harness.Parsec.spec in
  let p = Progs.build "selftest" (Harness.Kernel.to_x86 { spec with Harness.Kernel.iters = 300 }) in
  let r = Progs.reference p.Progs.image in
  let o = Engine_wl.run p in
  expect "engine: a correct run matches the reference" (passed (Engine_wl.check r o));
  let regs = Array.copy o.Engine_wl.regs in
  regs.(X86.Reg.index X86.Reg.RCX) <- Int64.logxor regs.(X86.Reg.index X86.Reg.RCX) 1L;
  expect "engine: one flipped register bit is caught"
    (caught (Engine_wl.check r { o with Engine_wl.regs }));
  let mem =
    match o.Engine_wl.mem with (a, v) :: rest -> (a, Int64.succ v) :: rest | [] -> [ (0L, 1L) ]
  in
  expect "engine: one wrong memory word is caught"
    (caught (Engine_wl.check r { o with Engine_wl.mem }));
  expect "engine: a lost store is caught"
    (caught (Engine_wl.check r { o with Engine_wl.mem = List.tl o.Engine_wl.mem }));
  expect "engine: a trapped thread is caught"
    (caught (Engine_wl.check r { o with Engine_wl.trap = Some "injected" }));
  let longer =
    Progs.build "selftest-301" (Harness.Kernel.to_x86 { spec with Harness.Kernel.iters = 301 })
  in
  expect "engine: the result of a different program is caught"
    (caught (Engine_wl.check r (Engine_wl.run longer)));
  expect "engine: a reference not started at the engine's stack top is caught"
    (caught (Engine_wl.check (Progs.reference ~rsp:0L p.Progs.image) o));
  expect "engine: a same-seed rerun reproduces every deterministic count"
    (Engine_wl.fingerprint (Engine_wl.run p) = Engine_wl.fingerprint o);
  (* Refinement known answers. *)
  let s = Refine_wl.make ~programs:60 ~seed:7 () in
  let reports = Mapping.Check.check_cells s.Refine_wl.requests.(0) in
  expect "refine: every cell of the proven schemes refines"
    (reports <> [] && Refine_wl.known_answer_failures reports = 0);
  let flipped = { (List.hd reports) with Mapping.Check.ok = false } :: List.tl reports in
  expect "refine: one flipped verdict is caught" (Refine_wl.known_answer_failures flipped = 1);
  let unsound =
    List.concat_map
      (fun (e : Report.Sweep.entry) ->
        if e.Report.Sweep.scheme <> "qemu-gcc9/arm-fix" then []
        else
          Mapping.Check.check_scheme ~name:e.Report.Sweep.scheme e.Report.Sweep.f
            ~src_model:e.Report.Sweep.src_model ~tgt_model:e.Report.Sweep.tgt_model
            e.Report.Sweep.corpus)
      (Report.Sweep.default_entries ())
  in
  expect "refine: the verdicts of a known-unsound scheme are caught"
    (Refine_wl.known_answer_failures unsound > 0);
  expect "refine: a rerun reproduces the verdict list"
    (Refine_wl.verdicts (Mapping.Check.check_cells s.Refine_wl.requests.(0))
    = Refine_wl.verdicts reports);
  if !failures > 0 then exit 1;
  print_endline "selftest passed"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) and trace = ref (-1) in
  let self = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := (try int_of_string v with Failure _ -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := (try int_of_string v with Failure _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ());
        parse rest
    | "--selftest" :: rest ->
        self := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self then selftest ()
  else begin
    if (not (List.mem !workload workloads)) || !seed < 0 || !seconds < 1 || !trace < 0 then
      usage ();
    let trace = !trace = 1 in
    match !workload with
    | "refine-corpus" -> run_refine ~seed:!seed ~seconds:!seconds ~trace
    | w -> run_engine w ~seed:!seed ~seconds:!seconds ~trace
  end
