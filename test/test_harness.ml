(* The evaluation harness: kernel compilation, and the qualitative
   shape of every figure — who wins, roughly by how much, and where the
   crossovers are.  Reduced workload sizes keep the suite fast; the
   shapes are size-invariant. *)

let check_bool = Alcotest.check Alcotest.bool

let small_spec ?(loads = 6) ?(stores = 2) ?(arith = 8) ?(fp = 0) ?(locks = 0) () =
  {
    Harness.Kernel.name = "t";
    iters = 300;
    mix = { Harness.Kernel.loads; stores; arith; fp; locks };
  }

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)

let test_kernel_dbt_terminates_and_counts () =
  let spec = small_spec () in
  let g, eng = Harness.Kernel.run_dbt Core.Config.qemu spec in
  check_bool "halted, no trap" true
    (g.Core.Engine.finished && g.Core.Engine.trap = None);
  check_bool "cycles counted" true (Core.Engine.cycles g > 0);
  check_bool "fences executed" true (g.Core.Engine.arm.Arm.Machine.fences > 0);
  ignore eng

let test_kernel_native_cheaper () =
  let spec = small_spec ~fp:4 () in
  let native = (Harness.Kernel.run_native spec).Arm.Machine.cycles in
  let g, _ = Harness.Kernel.run_dbt Core.Config.qemu spec in
  check_bool "native is much faster than emulation" true
    (native * 2 < Core.Engine.cycles g)

let test_kernel_locks_update_memory () =
  let spec = small_spec ~locks:1 () in
  let g, eng = Harness.Kernel.run_dbt Core.Config.risotto spec in
  ignore g;
  let lock_word =
    Memsys.Mem.load (Core.Engine.memory eng)
      (Int64.add (Int64.add 0x20000L 0L) 1024L)
  in
  Alcotest.(check int64) "300 atomic increments" 300L lock_word

let test_kernel_worker_team () =
  (* A 4-thread worker team shares the code cache and contends on the
     lock word; relative config ordering is preserved. *)
  let spec = small_spec ~locks:1 () in
  let cycles config =
    let g, _ = Harness.Kernel.run_dbt ~threads:4 config spec in
    Core.Engine.cycles g
  in
  let q = cycles Core.Config.qemu in
  let n = cycles Core.Config.no_fences in
  let t = cycles Core.Config.tcg_ver in
  check_bool "no-fences fastest" true (n < t);
  check_bool "tcg-ver beats qemu" true (t < q)

(* ------------------------------------------------------------------ *)
(* Figure 12 shape                                                     *)

let test_fig12_shape () =
  let rows =
    List.map
      (fun (b : Harness.Parsec.bench) ->
        let spec = { b.Harness.Parsec.spec with Harness.Kernel.iters = 250 } in
        let cycles config =
          let g, _ = Harness.Kernel.run_dbt config spec in
          Core.Engine.cycles g
        in
        let native = (Harness.Kernel.run_native spec).Arm.Machine.cycles in
        ( b.Harness.Parsec.spec.Harness.Kernel.name,
          cycles Core.Config.qemu,
          cycles Core.Config.no_fences,
          cycles Core.Config.tcg_ver,
          cycles Core.Config.risotto,
          native ))
      Harness.Parsec.all
  in
  List.iter
    (fun (name, qemu, no_fences, tcg_ver, risotto, native) ->
      check_bool (name ^ ": no-fences fastest emulated") true
        (no_fences <= tcg_ver);
      check_bool (name ^ ": verified mappings beat qemu") true (tcg_ver < qemu);
      check_bool (name ^ ": risotto no slower than qemu") true (risotto <= qemu);
      check_bool (name ^ ": native fastest") true
        (native < no_fences && native < risotto))
    rows;
  (* Aggregate targets: fences cost ≈ half of qemu's time on average
     (paper: 48%); verified mappings recover a mid-single-digit share
     (paper: 6.7% avg, up to 19.7%). *)
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows) in
  let improvement (_, q, _, t, _, _) = 1.0 -. (float_of_int t /. float_of_int q) in
  let fence_share (_, q, n, _, _, _) = 1.0 -. (float_of_int n /. float_of_int q) in
  let ai = avg improvement and af = avg fence_share in
  check_bool "avg improvement in [3%, 12%]" true (ai > 0.03 && ai < 0.12);
  check_bool "avg fence share in [30%, 60%]" true (af > 0.30 && af < 0.60);
  let max_i = List.fold_left (fun a r -> max a (improvement r)) 0.0 rows in
  check_bool "max improvement in [10%, 25%]" true (max_i > 0.10 && max_i < 0.25)

let test_fig12_summary_consistency () =
  (* Figures.summarize_fig12 agrees with manual computation on a stub. *)
  let mk q t n =
    {
      Harness.Figures.bench = Harness.Parsec.find "freqmine";
      qemu = q;
      no_fences = n;
      tcg_ver = t;
      risotto = t;
      native = 1;
    }
  in
  let s = Harness.Figures.summarize_fig12 [ mk 100 90 50 ] in
  Alcotest.(check (float 1e-9)) "improvement" 0.10 s.Harness.Figures.avg_improvement;
  Alcotest.(check (float 1e-9)) "fence share" 0.50 s.Harness.Figures.avg_fence_share

(* ------------------------------------------------------------------ *)
(* Figure 13 / 14 shape                                                *)

let test_fig13_shape () =
  let results = List.map Harness.Libbench.run Harness.Libbench.openssl in
  List.iter
    (fun (r : Harness.Libbench.result) ->
      let sr = Harness.Libbench.speedup_risotto r in
      let sn = Harness.Libbench.speedup_native r in
      let l = r.bench.Harness.Libbench.label in
      check_bool (l ^ ": host linking wins") true (sr > 1.0);
      check_bool (l ^ ": risotto within 25% of native") true
        (sr > 0.75 *. sn);
      check_bool (l ^ ": guest and host implementations agree") true
        r.Harness.Libbench.values_agree)
    results;
  let by label =
    List.find (fun (r : Harness.Libbench.result) -> r.bench.Harness.Libbench.label = label) results
  in
  check_bool "md5 speedup modest (~1.4x)" true
    (Harness.Libbench.speedup_risotto (by "md5-1024") < 2.5);
  check_bool "sha256 speedup large (>10x)" true
    (Harness.Libbench.speedup_risotto (by "sha256-1024") > 10.0);
  (* md5-1024 is the paper's minimum, sha256-8192 its 23x maximum. *)
  let all_speedups = List.map Harness.Libbench.speedup_risotto results in
  check_bool "md5-1024 is the minimum" true
    (List.for_all
       (fun s -> s >= Harness.Libbench.speedup_risotto (by "md5-1024"))
       all_speedups);
  check_bool "sha256-8192 is the maximum" true
    (List.for_all
       (fun s -> s <= Harness.Libbench.speedup_risotto (by "sha256-8192"))
       all_speedups);
  check_bool "sha256-8192 near the paper's 23x" true
    (let s = Harness.Libbench.speedup_risotto (by "sha256-8192") in
     s > 18.0 && s < 32.0)

let test_fig14_shape () =
  let results = List.map Harness.Libbench.run Harness.Libbench.libm in
  let by label =
    List.find (fun (r : Harness.Libbench.result) -> r.bench.Harness.Libbench.label = label) results
  in
  let sqrt_s = Harness.Libbench.speedup_risotto (by "sqrt") in
  let sin_s = Harness.Libbench.speedup_risotto (by "sin") in
  check_bool "sqrt speedup smallest, near 1x" true (sqrt_s < 2.5);
  check_bool "sin speedup large (5-20x)" true (sin_s > 5.0 && sin_s < 20.0);
  check_bool "sqrt < sin" true (sqrt_s < sin_s);
  check_bool "sqrt is the global minimum" true
    (List.for_all
       (fun (r : Harness.Libbench.result) ->
         Harness.Libbench.speedup_risotto r >= sqrt_s)
       results);
  (* Marshaling keeps risotto below native on short calls (§7.3). *)
  List.iter
    (fun (r : Harness.Libbench.result) ->
      check_bool
        (r.bench.Harness.Libbench.label ^ ": native above risotto")
        true
        (Harness.Libbench.speedup_native r > Harness.Libbench.speedup_risotto r))
    results

(* ------------------------------------------------------------------ *)
(* Figure 15 shape                                                     *)

let test_fig15_shape () =
  let run t v = Harness.Casbench.run { Harness.Casbench.threads = t; vars = v } in
  let r11 = run 1 1 in
  let r41 = run 4 1 in
  let r42 = run 4 2 in
  let r44 = run 4 4 in
  let r81 = run 8 1 in
  (* more contenders per line -> lower throughput *)
  check_bool "4-2 between 4-1 and 4-4" true
    (r41.Harness.Casbench.risotto < r42.Harness.Casbench.risotto
    && r42.Harness.Casbench.risotto < r44.Harness.Casbench.risotto);
  check_bool "8-1 saturates near 4-1" true
    (r81.Harness.Casbench.risotto < 2.0 *. r41.Harness.Casbench.risotto);
  (* Uncontended: risotto's direct casal beats the helper significantly
     (paper: up to 48%). *)
  let gain = r11.Harness.Casbench.risotto /. r11.Harness.Casbench.qemu in
  check_bool "uncontended gain in [1.2x, 1.6x]" true (gain > 1.2 && gain < 1.6);
  (* Contended: they converge (paper: "perform similarly"). *)
  let gain_c = r41.Harness.Casbench.risotto /. r41.Harness.Casbench.qemu in
  check_bool "contended gain below 1.15x" true (gain_c < 1.15);
  (* Contention destroys throughput. *)
  check_bool "4-1 slower than 4-4" true
    (r41.Harness.Casbench.risotto < r44.Harness.Casbench.risotto /. 2.0);
  (* Native at least as fast as risotto everywhere. *)
  List.iter
    (fun (r : Harness.Casbench.result) ->
      check_bool "native >= risotto" true
        (r.Harness.Casbench.native >= 0.95 *. r.Harness.Casbench.risotto))
    [ r11; r41; r44 ]

(* ------------------------------------------------------------------ *)
(* Execution-core parity: model counts of every kernel, pinned         *)

(* (config, kernel, cycles, host insns, fences, helper calls) for each
   Parsec/Phoenix kernel at 200 iterations, as the word-table memory and
   the per-call helper lookup produced them.  A change to how blocks or
   memory execute must leave every figure unchanged; a change to the
   fence mapping, lowering or cost model moves them on purpose. *)
let golden =
  [
    ("qemu", "blackscholes", 145206, 6407, 1000, 2000);
    ("qemu", "bodytrack", 82806, 7207, 1600, 800);
    ("qemu", "canneal", 60006, 8207, 2600, 200);
    ("qemu", "facesim", 135931, 7996, 1800, 1600);
    ("qemu", "fluidanimate", 112797, 8598, 2400, 1400);
    ("qemu", "freqmine", 61206, 8807, 3200, 0);
    ("qemu", "streamcluster", 121475, 8792, 2400, 1200);
    ("qemu", "swaptions", 124806, 6807, 1200, 1600);
    ("qemu", "vips", 66326, 7991, 2000, 400);
    ("qemu", "histogram", 39606, 6407, 2000, 0);
    ("qemu", "kmeans", 89900, 7991, 2000, 800);
    ("qemu", "linearregression", 28806, 5607, 1400, 0);
    ("qemu", "matrixmultiply", 110006, 7207, 1800, 1200);
    ("qemu", "pca", 114302, 7993, 2000, 1200);
    ("qemu", "stringmatch", 43606, 7607, 2200, 0);
    ("qemu", "wordcount", 44006, 7207, 2200, 0);
    ("risotto", "blackscholes", 142406, 6207, 800, 2000);
    ("risotto", "bodytrack", 77806, 7007, 1400, 800);
    ("risotto", "canneal", 48006, 8007, 2400, 0);
    ("risotto", "facesim", 128725, 7792, 1596, 1600);
    ("risotto", "fluidanimate", 95797, 7198, 1000, 1200);
    ("risotto", "freqmine", 56206, 8607, 3000, 0);
    ("risotto", "streamcluster", 116453, 8584, 2192, 1200);
    ("risotto", "swaptions", 119806, 6607, 1000, 1600);
    ("risotto", "vips", 56920, 7787, 1796, 400);
    ("risotto", "histogram", 34606, 6207, 1800, 0);
    ("risotto", "kmeans", 84886, 7785, 1794, 800);
    ("risotto", "linearregression", 26006, 5407, 1200, 0);
    ("risotto", "matrixmultiply", 107206, 7007, 1600, 1200);
    ("risotto", "pca", 109288, 7787, 1794, 1200);
    ("risotto", "stringmatch", 40806, 7407, 2000, 0);
    ("risotto", "wordcount", 36806, 7007, 2000, 0)
  ]

let test_model_counts_pinned () =
  let configs = [ ("qemu", Core.Config.qemu); ("risotto", Core.Config.risotto) ] in
  List.iter
    (fun (cname, kname, cycles, insns, fences, helper_calls) ->
      let b = Harness.Parsec.find kname in
      let spec = { b.Harness.Parsec.spec with Harness.Kernel.iters = 200 } in
      let g, _ = Harness.Kernel.run_dbt (List.assoc cname configs) spec in
      let a = g.Core.Engine.arm in
      Alcotest.(check (list int))
        (Printf.sprintf "%s/%s cycles, insns, fences, helper calls" cname kname)
        [ cycles; insns; fences; helper_calls ]
        Arm.Machine.[ a.cycles; a.insns; a.fences; a.helper_calls ])
    golden;
  check_bool "every kernel under both configs" true
    (List.length golden = 2 * List.length Harness.Parsec.all)

let () =
  Alcotest.run "harness"
    [
      ( "kernels",
        [
          Alcotest.test_case "dbt run" `Quick test_kernel_dbt_terminates_and_counts;
          Alcotest.test_case "native baseline" `Quick test_kernel_native_cheaper;
          Alcotest.test_case "atomic counter" `Quick test_kernel_locks_update_memory;
          Alcotest.test_case "worker team" `Quick test_kernel_worker_team;
          Alcotest.test_case "model counts pinned (16 kernels x qemu/risotto)"
            `Quick test_model_counts_pinned;
        ] );
      ( "figure 12",
        [
          Alcotest.test_case "per-benchmark ordering + aggregates" `Slow
            test_fig12_shape;
          Alcotest.test_case "summary arithmetic" `Quick
            test_fig12_summary_consistency;
        ] );
      ( "figures 13/14",
        [
          Alcotest.test_case "openssl/sqlite shape" `Slow test_fig13_shape;
          Alcotest.test_case "libm shape" `Slow test_fig14_shape;
        ] );
      ( "figure 15",
        [ Alcotest.test_case "contention shape" `Slow test_fig15_shape ] );
    ]
