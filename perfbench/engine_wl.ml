(* The engine workloads (parsec-steady, cold-image, call-dispatch): run
   each program on a fresh risotto engine, check it against the
   reference interpreter, and — in the traced run — attribute its time
   to the DBT's layers by replaying their public entry points. *)

open Progs

let config = Core.Config.risotto
let max_blocks = 100_000_000

(* One program run as seen from outside the engine. *)
type outcome = {
  regs : int64 array;
  mem : (int64 * int64) list;
  trap : string option;
  first_ns : int;  (** Engine.create until the first step_block returns *)
  total_ns : int;  (** Engine.create until the thread finished *)
  (* deterministic counts *)
  cycles : int;
  host_insns : int;
  translated : int;
  executed : int;
  words : float;
}

(* The determinism fingerprint: everything but wall time. *)
let fingerprint o = (o.cycles, o.host_insns, o.translated, o.executed, o.words)

let finish eng (g : Core.Engine.guest_thread) ~first_ns ~total_ns ~words =
  let stats = Core.Engine.stats eng in
  {
    regs = Array.sub g.Core.Engine.arm.Arm.Machine.regs 0 16;
    mem = Memsys.Mem.dump (Core.Engine.memory eng);
    trap =
      (match Core.Engine.trap g with
      | Some f -> Some (Core.Fault.to_string f)
      | None -> if g.Core.Engine.finished then None else Some "block budget exhausted");
    first_ns;
    total_ns;
    cycles = Core.Engine.cycles g;
    host_insns = g.Core.Engine.arm.Arm.Machine.insns;
    translated = stats.Core.Engine.blocks_translated;
    executed = stats.Core.Engine.blocks_executed;
    words;
  }

(* [tick] is called between blocks, every 1,024 of them. *)
let run ?(tick = ignore) (p : prog) =
  let w0 = Gc.minor_words () in
  let t0 = Span.now () in
  let eng = Core.Engine.create config p.image in
  let g = Core.Engine.spawn eng ~tid:0 ~entry:p.image.Image.Gelf.entry () in
  Core.Engine.step_block eng g;
  let t1 = Span.now () in
  let n = ref 1 in
  while (not g.Core.Engine.finished) && !n < max_blocks do
    Core.Engine.step_block eng g;
    incr n;
    if !n land 1023 = 0 then tick ()
  done;
  let t2 = Span.now () in
  let words = Gc.minor_words () -. w0 in
  finish eng g ~first_ns:(t1 - t0) ~total_ns:(t2 - t0) ~words

(* Time-to-first-block alone: a fresh engine, one block. *)
let first_block (p : prog) =
  let t0 = Span.now () in
  let eng = Core.Engine.create config p.image in
  let g = Core.Engine.spawn eng ~tid:0 ~entry:p.image.Image.Gelf.entry () in
  Core.Engine.step_block eng g;
  Span.now () - t0

(* [n] first-block samples.  Each starts a fresh major cycle on an empty
   minor heap: left where the previous sample put it, the collector's
   phase moved the p50 by a third from one seed, or one build, to the
   next. *)
let probe_first_blocks p n =
  List.init n (fun _ ->
      Gc.major ();
      first_block p)

(* Extra time-to-first-block samples taken after each measured run: at
   least 8, and enough for about 256 samples per pass over [n]
   programs. *)
let first_block_probes n = max 8 ((256 / n) - 1)

(* The oracle: [None] when the run matches the reference, otherwise why
   it does not. *)
let check (r : reference) o =
  match o.trap with
  | Some t -> Some ("trap: " ^ t)
  | None ->
      if o.regs <> r.ref_regs then begin
        let i = ref 0 in
        while o.regs.(!i) = r.ref_regs.(!i) do incr i done;
        Some
          (Printf.sprintf "register %s: got 0x%Lx, reference 0x%Lx"
             (X86.Reg.name (X86.Reg.of_index !i))
             o.regs.(!i) r.ref_regs.(!i))
      end
      else if o.mem <> r.ref_mem then Some "guest memory differs from the reference"
      else None

(* ------------------------------------------------------------------ *)
(* Untraced run: closed-loop passes over the whole program list. *)

type result = {
  loop : Loop.result;  (** throughput in guest instructions per second *)
  insns : int;  (** guest instructions retired in measured passes *)
  cycles : int;
  latencies_ns : float array;
      (** time-to-first-block samples (each run and its probes),
          corrected for host speed *)
}

let timed ~seconds progs refs =
  let t = Loop.tally (List.length progs) in
  let probes = first_block_probes (List.length progs) in
  let insns = ref 0 and cycles = ref 0 and lat = ref [] in
  let account i (p : prog) r o =
    t.Loop.attempted <- t.Loop.attempted + 1;
    (match check r o with Some why -> Loop.fail t p.label why | None -> ());
    match Loop.rerun t i (fingerprint o) with
    | None -> ()
    | Some (c, h, tr, e, w) ->
        let c', h', tr', e', w' = fingerprint o in
        Loop.fail t p.label
          (Printf.sprintf
             "nondeterministic: (cycles, host insns, translated, executed, minor words) = \
              (%d, %d, %d, %d, %.0f), first run (%d, %d, %d, %d, %.0f)"
             c' h' tr' e' w' c h tr e w)
  in
  (* The meter may pause a long program between blocks to sample the
     yardstick; the pauses' wall time and minor words are taken out of
     the run. *)
  let pass ~measured m ns =
    let raw_ns = ref 0 and steps = ref 0 and firsts = ref [] in
    List.iteri
      (fun i (p, r) ->
        let last = ref (Span.now ()) in
        let paused = ref 0 and paused_words = ref 0 in
        let tick () =
          if Yardstick.due m then begin
            let t = Span.now () and w = Gc.minor_words () in
            Yardstick.charge m ns (t - !last);
            Yardstick.close m;
            last := Span.now ();
            paused := !paused + (!last - t);
            (* an int, so that the update itself allocates nothing *)
            paused_words := !paused_words + int_of_float (Gc.minor_words () -. w)
          end
        in
        let started = !last in
        let o = run ~tick p in
        Yardstick.charge m ns (started + o.total_ns - !last);
        let o =
          { o with total_ns = o.total_ns - !paused; words = o.words -. float_of_int !paused_words }
        in
        account i p r o;
        raw_ns := !raw_ns + o.total_ns;
        steps := !steps + r.ref_steps;
        let sample ns =
          let acc = ref 0. in
          Yardstick.charge m acc ns;
          firsts := acc :: !firsts
        in
        if measured then begin
          cycles := !cycles + o.cycles;
          sample o.first_ns
        end;
        if Yardstick.due m then Yardstick.close m;
        (* Collect this run's garbage, and the yardstick's, outside the
           timed parts, so every run and probe starts from a heap without
           another program's collection debt. *)
        Gc.full_major ();
        if measured then
          List.iter sample (probe_first_blocks p probes))
      (List.combine progs refs);
    if measured then begin
      insns := !insns + !steps;
      (* the samples' accumulators are final once the pass's meter closes *)
      lat := List.rev_append !firsts !lat
    end;
    (!steps, !raw_ns)
  in
  let loop = Loop.run ~seconds t pass in
  {
    loop;
    insns = !insns;
    cycles = !cycles;
    latencies_ns = Array.of_list (List.map ( ! ) !lat);
  }

(* ------------------------------------------------------------------ *)
(* Traced run. *)

let pass_key = function
  | Tcg.Pipeline.Const_fold -> "const_fold"
  | Tcg.Pipeline.Dce -> "dce"
  | Tcg.Pipeline.Mem_elim -> "mem_elim"
  | Tcg.Pipeline.Fence_merge -> "fence_merge"

type counters = {
  mutable guest_insns : float;
  mutable host_insns : float;
  mutable blocks : float;
  mutable lookups : float;
  mutable chain_hits : float;
  mutable jcache_hits : float;
  mutable raw_ops : float;
  mutable fences_in : float;
  mutable fences_out : float;
  mutable host_code : float;  (** host instructions compiled *)
  mutable ops_compiled : float;
  mutable untraced_ns : float;
  mutable first_ns : float list;  (** untraced time-to-first-block samples *)
  mutable traced_ns : float;
  mutable replay_mismatches : int;
}

(* A block entry captured for the machine replay. *)
type sample = { s_pc : int64; s_regs : int64 array; s_cmp : int64 * int64 }

let sample_every = 16
let max_samples = 4096
let max_accesses = 200_000

let traced_program sp c ~probes (p : prog) (r : reference) =
  let id = Span.id sp in
  let i_prog = id "program" and i_create = id "engine.create" in
  let i_step = id "engine.step_block" and i_replay = id "replay" in
  let i_fetch = id "engine.fetch" and i_decode = id "x86.decode" in
  let i_front = id "frontend.translate" and i_back = id "backend.compile" in
  let i_exec = id "machine.exec_block" and i_mem = id "mem.replay" in
  let i_pass = List.map (fun ps -> (ps, id ("pipeline." ^ pass_key ps))) Tcg.Pipeline.all in
  (* Untraced reference timing for the overhead ratio. *)
  let u = run p in
  c.untraced_ns <- c.untraced_ns +. float_of_int u.total_ns;
  c.first_ns <-
    List.map float_of_int (u.first_ns :: probe_first_blocks p probes) @ c.first_ns;
  (* Traced execution. *)
  Span.enter sp i_prog;
  let t0 = Span.now () in
  let w0 = Gc.minor_words () in
  let eng = Span.with_ sp i_create (fun () -> Core.Engine.create config p.image) in
  let g = Core.Engine.spawn eng ~tid:0 ~entry:p.image.Image.Gelf.entry () in
  let arm = g.Core.Engine.arm in
  let seen = Hashtbl.create 1024 and order = ref [] in
  let samples = ref [] and nsamples = ref 0 in
  let steps = ref 0 and first_ns = ref 0 in
  while (not g.Core.Engine.finished) && !steps < max_blocks do
    let pc = g.Core.Engine.pc in
    if not (Hashtbl.mem seen pc) then begin
      Hashtbl.add seen pc ();
      order := pc :: !order
    end;
    if !steps mod sample_every = 0 && !nsamples < max_samples then begin
      samples :=
        { s_pc = pc; s_regs = Array.copy arm.Arm.Machine.regs; s_cmp = arm.Arm.Machine.cmp }
        :: !samples;
      incr nsamples
    end;
    let h0 = arm.Arm.Machine.insns in
    Span.enter sp i_step;
    Core.Engine.step_block eng g;
    Span.leave sp ~units:1.;
    c.host_insns <- c.host_insns +. float_of_int (arm.Arm.Machine.insns - h0);
    if !steps = 0 then first_ns := Span.now () - t0;
    incr steps
  done;
  let o =
    finish eng g ~first_ns:!first_ns ~total_ns:(Span.now () - t0)
      ~words:(Gc.minor_words () -. w0)
  in
  Span.leave sp;
  c.traced_ns <- c.traced_ns +. float_of_int o.total_ns;
  let stats = Core.Engine.stats eng in
  c.guest_insns <- c.guest_insns +. float_of_int r.ref_steps;
  c.blocks <- c.blocks +. float_of_int stats.Core.Engine.blocks_executed;
  c.lookups <- c.lookups +. float_of_int stats.Core.Engine.lookups;
  c.chain_hits <- c.chain_hits +. float_of_int stats.Core.Engine.chain_hits;
  c.jcache_hits <- c.jcache_hits +. float_of_int stats.Core.Engine.jmp_cache_hits;
  Span.enter sp i_replay;
  (* Translation replay: every block the run translated, once through a
     fresh engine's fetch and once stage by stage. *)
  let eng2 = Core.Engine.create config p.image in
  let fe = Core.Frontend.create config p.image (Core.Engine.links eng2) in
  let text = p.image.Image.Gelf.text and base = p.image.Image.Gelf.text_base in
  List.iter
    (fun pc ->
      ignore (Span.with_ sp i_fetch ~units:1. (fun () -> Core.Engine.fetch eng2 pc));
      let raw = Span.with_ sp i_front (fun () -> Core.Frontend.translate fe pc) in
      let n_insns = raw.Tcg.Block.guest_insns in
      Span.add_units sp i_front (float_of_int n_insns);
      Span.enter sp i_decode;
      let a = ref pc in
      for _ = 1 to n_insns do
        let _, len = X86.Decode.decode text ~pc:!a ~base in
        a := Int64.add !a (Int64.of_int len)
      done;
      Span.leave sp ~units:(float_of_int n_insns);
      let ops =
        List.fold_left
          (fun ops ps ->
            let i = List.assoc ps i_pass in
            let n_in = List.length ops in
            let out = Span.with_ sp i (fun () -> Tcg.Pipeline.run_pass ps ops) in
            Span.add_units sp i (float_of_int n_in);
            Span.add_units sp (Span.id sp ("pipeline." ^ pass_key ps ^ ".out"))
              (float_of_int (List.length out));
            out)
          raw.Tcg.Block.ops config.Core.Config.passes
      in
      c.raw_ops <- c.raw_ops +. float_of_int (List.length raw.Tcg.Block.ops);
      c.fences_in <- c.fences_in +. float_of_int (Tcg.Fenceopt.count raw.Tcg.Block.ops);
      c.fences_out <- c.fences_out +. float_of_int (Tcg.Fenceopt.count ops);
      let n_ops = List.length ops in
      let code =
        Span.with_ sp i_back ~units:(float_of_int n_ops) (fun () ->
            Core.Backend.compile config { raw with Tcg.Block.ops })
      in
      c.ops_compiled <- c.ops_compiled +. float_of_int n_ops;
      c.host_code <- c.host_code +. float_of_int (Array.length code);
      (* The staged replay must rebuild exactly what the engine installed. *)
      match Core.Engine.fetch eng2 pc with
      | Core.Engine.Native installed when installed = code -> ()
      | _ -> c.replay_mismatches <- c.replay_mismatches + 1)
    (List.rev !order);
  (* Machine replay: sampled block entries re-executed on copied state,
     once to warm the caches the way the dispatch loop finds them, then
     under the span. *)
  let mem = Memsys.Mem.create () in
  List.iter (fun (a, v) -> Memsys.Mem.store mem a v) o.mem;
  let shared = Arm.Machine.create_shared mem in
  Core.Helpers.register_all shared;
  let th = Arm.Machine.create_thread 0 in
  let load s =
    Array.blit s.s_regs 0 th.Arm.Machine.regs 0 (Array.length s.s_regs);
    th.Arm.Machine.cmp <- s.s_cmp;
    th.Arm.Machine.exclusive <- None;
    th.Arm.Machine.halted <- false
  in
  List.iter
    (fun s ->
      match Core.Engine.fetch eng s.s_pc with
      | Core.Engine.Native code ->
          load s;
          ignore (Arm.Machine.exec_block shared th code);
          load s;
          let h0 = th.Arm.Machine.insns in
          Span.enter sp i_exec;
          ignore (Arm.Machine.exec_block shared th code);
          Span.leave sp ~units:(float_of_int (th.Arm.Machine.insns - h0))
      | Core.Engine.Interp_only _ -> ())
    (List.rev !samples);
  (* Memory replay: the program's address stream through a fresh Mem. *)
  let stream = address_stream ~limit:max_accesses p.image in
  let m = Memsys.Mem.create () in
  let chunk = 1024 in
  let n = Array.length stream in
  let k = ref 0 in
  while !k < n do
    let hi = min n (!k + chunk) in
    Span.enter sp i_mem;
    for j = !k to hi - 1 do
      let st, a = Array.unsafe_get stream j in
      if st then Memsys.Mem.store m a 1L else ignore (Memsys.Mem.load m a)
    done;
    Span.leave sp ~units:(float_of_int (hi - !k));
    k := hi
  done;
  Span.leave sp;
  (u, o)

let traced ~seconds sp progs refs =
  let c =
    {
      guest_insns = 0.;
      host_insns = 0.;
      blocks = 0.;
      lookups = 0.;
      chain_hits = 0.;
      jcache_hits = 0.;
      raw_ops = 0.;
      fences_in = 0.;
      fences_out = 0.;
      host_code = 0.;
      ops_compiled = 0.;
      untraced_ns = 0.;
      first_ns = [];
      traced_ns = 0.;
      replay_mismatches = 0;
    }
  in
  let attempted = ref 0 and failed = ref 0 in
  let probes = first_block_probes (List.length progs) in
  let deadline = Span.now () + (seconds * 1_000_000_000) in
  let rec go = function
    | (p, r) :: rest when !attempted = 0 || Span.now () < deadline ->
        let u, o = traced_program sp c ~probes p r in
        incr attempted;
        let counts (o : outcome) = (o.cycles, o.host_insns, o.translated, o.executed) in
        (match check r o, check r u with
        | Some why, _ | None, Some why ->
            incr failed;
            Loop.report_failure p.label why
        | None, None ->
            if counts o <> counts u then begin
              incr failed;
              Loop.report_failure p.label
                "nondeterministic: the traced run's counts differ from the untraced run's"
            end);
        go rest
    | _ -> ()
  in
  go (List.combine progs refs);
  if c.replay_mismatches > 0 then begin
    incr failed;
    Loop.report_failure "replay"
      (Printf.sprintf "%d replayed translations differ from the installed code"
         c.replay_mismatches)
  end;
  let ratio a b = if b = 0. then 0. else a /. b in
  let per name = ratio (Span.self_ns sp name) (Span.units sp name) in
  let words name = ratio (Span.self_words sp name) (Span.units sp name) in
  let front_insns = Span.units sp "frontend.translate" in
  let fetch_ns = Span.self_ns sp "engine.fetch" in
  let staged_ns =
    Span.self_ns sp "frontend.translate" +. Span.self_ns sp "backend.compile"
    +. List.fold_left
         (fun acc ps -> acc +. Span.self_ns sp ("pipeline." ^ pass_key ps))
         0. Tcg.Pipeline.all
  in
  let machine_ns = per "machine.exec_block" in
  (* Sampled block entries are a uniform subsample of the dispatches, so
     the mean replayed exec_block is the execution part of a dispatch. *)
  let exec_per_block =
    ratio (Span.self_ns sp "machine.exec_block") (float_of_int (Span.count sp "machine.exec_block"))
  in
  let step_ns = Span.self_ns sp "engine.step_block" in
  let pass_metrics =
    List.concat_map
      (fun ps ->
        let k = "pipeline." ^ pass_key ps in
        [
          (k ^ ".ns_per_op", per k, "ns");
          (k ^ ".words_per_op", words k, "words");
          (k ^ ".ops_out_ratio", ratio (Span.units sp (k ^ ".out")) (Span.units sp k), "ratio");
        ])
      Tcg.Pipeline.all
  in
  let metrics =
    [
      ("x86.decode.ns_per_insn", per "x86.decode", "ns");
      ("frontend.ns_per_insn", ratio (Span.self_ns sp "frontend.translate") front_insns, "ns");
      ( "frontend.words_per_insn",
        ratio (Span.self_words sp "frontend.translate") front_insns,
        "words" );
      ("frontend.ops_per_insn", ratio c.raw_ops front_insns, "count");
    ]
    @ pass_metrics
    @ [
        ("backend.ns_per_op", per "backend.compile", "ns");
        ("backend.words_per_op", words "backend.compile", "words");
        ( "engine.translate_self_ns_per_block",
          ratio (Float.max 0. (fetch_ns -. staged_ns)) (Span.units sp "engine.fetch"),
          "ns" );
        ( "engine.create_us",
          ratio (Span.self_ns sp "engine.create") (float_of_int (Span.count sp "engine.create"))
          /. 1e3,
          "us" );
        ("pipeline.fences_kept_ratio", ratio c.fences_out c.fences_in, "ratio");
        ("backend.host_insns_per_op", ratio c.host_code c.ops_compiled, "ratio");
        ("machine.host_insns_per_guest_insn", ratio c.host_insns c.guest_insns, "ratio");
        ("engine.step_ns_per_block", ratio step_ns c.blocks, "ns");
        ("engine.words_per_block", words "engine.step_block", "words");
        ("machine.ns_per_host_insn", machine_ns, "ns");
        ("machine.words_per_host_insn", words "machine.exec_block", "words");
        ("mem.ns_per_access", per "mem.replay", "ns");
        ("mem.words_per_access", words "mem.replay", "words");
        ( "engine.dispatch_self_ns_per_block",
          Float.max 0. (ratio step_ns c.blocks -. exec_per_block),
          "ns" );
        ("engine.chain_hit_ratio", ratio c.chain_hits c.lookups, "ratio");
        ("engine.jcache_hit_ratio", ratio c.jcache_hits c.lookups, "ratio");
        ( "engine.table_lookups_per_block",
          ratio (c.lookups -. c.chain_hits -. c.jcache_hits) c.blocks,
          "ratio" );
        ("latency_us_p90", Stats.percentile 0.9 (Array.of_list c.first_ns) /. 1e3, "us");
        ("trace.overhead_ratio", ratio c.traced_ns c.untraced_ns, "ratio");
      ]
  in
  (!attempted, !failed, metrics)
