(* Bechamel wall-clock micro-benchmarks: one Test.make per table/figure
   driver (at reduced sizes, so each fits a bechamel quota) plus native
   execution through Lf_native.  These measure the cost of this
   implementation itself -- analysis, derivation, fusion, simulation --
   and the real fused-vs-unfused wall clock of native LL18.
   The tune/* pair measures the autotuner's exact cost tier cold
   (simulation) versus memoised (fingerprint lookup), and the run
   prints an explicit verdict that the memoised path is cheaper. *)

open Bechamel
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Derive = Lf_core.Derive
module Schedule = Lf_core.Schedule
module Native = Lf_native.Native
module Pool = Lf_parallel.Pool
module TCost = Lf_tune.Cost
module TSpace = Lf_tune.Space

let n_small = 64

let test_t2_derivation =
  let p = Lf_kernels.Filter.program ~rows:64 ~cols:32 () in
  Test.make ~name:"t2/derive-filter"
    (Staged.stage (fun () -> Derive.of_program ~depth:1 p))

let test_multigraph =
  let p = Lf_kernels.Ll18.program ~n:n_small () in
  Test.make ~name:"t2/multigraph-ll18"
    (Staged.stage (fun () -> Lf_dep.Dep.build ~depth:1 p))

let test_fused_schedule =
  let p = Lf_kernels.Calc.program ~n:n_small () in
  Test.make ~name:"f22/schedule-calc"
    (Staged.stage (fun () -> Schedule.fused ~nprocs:4 ~strip:8 p))

let sim_test name machine kernel =
  Test.make ~name
    (Staged.stage (fun () ->
         let pair = Util.run_pair ~machine ~nprocs:4 kernel in
         pair.Util.fused.Exec.total_misses))

let test_f20_sim = sim_test "f20/sim-ll18-convex" Machine.convex
    (Lf_kernels.Ll18.program ~n:n_small ())

let test_f22_sim = sim_test "f22/sim-ll18-ksr2" Machine.ksr2
    (Lf_kernels.Ll18.program ~n:n_small ())

let test_f23_sim = sim_test "f23/sim-filter-convex" Machine.convex
    (Lf_kernels.Filter.program ~rows:64 ~cols:32 ())

let test_f26_alignrep =
  let p = Lf_kernels.Ll18.program ~n:n_small () in
  Test.make ~name:"f26/alignrep-transform-ll18"
    (Staged.stage (fun () ->
         match Lf_core.Alignrep.transform p with
         | Ok r -> r.Lf_core.Alignrep.replicated_stmts
         | Error _ -> -1))

(* Autotuner exact tier: a cold evaluation simulates the candidate on
   the machine model; a memoised one is a fingerprint + hash lookup. *)
let tune_prog = Lf_kernels.Ll18.program ~n:48 ()
let tune_cand = TSpace.paper_default ~machine:Machine.convex tune_prog

let test_tune_exact_cold =
  Test.make ~name:"tune/exact-cold"
    (Staged.stage (fun () ->
         let cache = TCost.create_cache () in
         TCost.exact ~cache ~machine:Machine.convex ~nprocs:4 tune_prog
           tune_cand))

let tune_memo_cache = TCost.create_cache ()

let test_tune_exact_memo =
  Test.make ~name:"tune/exact-memo"
    (Staged.stage (fun () ->
         TCost.exact ~cache:tune_memo_cache ~machine:Machine.convex ~nprocs:4
           tune_prog tune_cand))

let test_cache_throughput =
  let c = Lf_cache.Cache.of_geometry (Lf_cache.Cache.convex_geometry ()) in
  Test.make ~name:"substrate/cache-100k-accesses"
    (Staged.stage (fun () ->
         for i = 0 to 99_999 do
           ignore (Lf_cache.Cache.access c (i * 8))
         done))

(* 100k scalar probes of the Convex's 120-entry fully associative TLB,
   cycling over 100 pages of a footprint-sized instance: after the first
   pass every access hits, found through the line -> way index. *)
let test_tlb_throughput =
  let shape = Option.get Machine.convex.Machine.tlb in
  let pages = 100 in
  let span = pages * shape.Lf_cache.Cache.line in
  let c =
    Lf_cache.Cache.of_geometry (Lf_cache.Cache.geometry ~footprint:span shape)
  in
  Test.make ~name:"substrate/tlb-100k-accesses"
    (Staged.stage (fun () ->
         let addr = ref 0 in
         for _ = 1 to 100_000 do
           ignore (Lf_cache.Cache.access c !addr);
           addr := (!addr + shape.Lf_cache.Cache.line + 8) mod span
         done))

(* The layers a warm served hit pays for: naming a request (its
   canonical text, program included) and decoding a client frame, whose
   strict parse re-renders the request to check the round trip.  The
   request is the serve-mixed benchmark's miss: fused LL18 on the
   Convex, partitioned layout, 4 processors. *)
let hit_request =
  let p = Lf_kernels.Ll18.program ~n:40 () in
  let m = Machine.convex in
  Lf_machine.Sim.fused
    ~layout:(Lf_queue.Sweep.partitioned_layout m p)
    ~mode:Lf_machine.Sim.Run_compressed ~machine:m ~nprocs:4
    ~strip:(Lf_queue.Sweep.strip_for m p) p

let test_canonical_render =
  Test.make ~name:"substrate/canonical-render"
    (Staged.stage (fun () -> Lf_machine.Sim.canonical hit_request))

(* The engine alone on the same request, which `serve-mixed` computes on
   every guaranteed miss: serial runs back to back on one domain, so
   each recycles the caches and TLBs of the run before. *)
let test_served_miss_sim =
  Test.make ~name:"substrate/served-miss-sim"
    (Staged.stage (fun () -> Exec.run_opts (Exec.opts ~jobs:1 ()) hit_request))

(* One miss-only request of the `sweep-cold` mix, fused ll18 at its
   centre size n = 112 on the KSR2, partitioned and strip-mined as the
   sweep builds it: the counter-oracle tier alone, serial. *)
let miss_only_request =
  let p = Lf_kernels.Ll18.program ~n:112 () in
  let m = Machine.ksr2 in
  Lf_machine.Sim.fused
    ~layout:(Lf_queue.Sweep.partitioned_layout m p)
    ~mode:Lf_machine.Sim.Miss_only ~machine:m ~nprocs:4
    ~strip:(Lf_queue.Sweep.strip_for m p) p

let test_miss_only_request =
  Test.make ~name:"substrate/miss-only-request"
    (Staged.stage (fun () ->
         Exec.run_opts (Exec.opts ~jobs:1 ()) miss_only_request))

let test_hit_decode =
  let payload =
    Lf_serve.Wire.client_msg_to_payload
      (Lf_serve.Wire.Request { rid = 1; req = hit_request })
  in
  Test.make ~name:"wire/hit-decode"
    (Staged.stage (fun () -> Lf_serve.Wire.client_msg_of_payload payload))

(* Native LL18 through Lf_native, unfused and fused, on each pool.
   Pools, schedules and buffers are built outside the timed closure;
   each run resets the buffers first, so every run computes from the
   same initial arrays. *)
let native_tests pools =
  let p = Lf_kernels.Ll18.program ~n:256 () in
  let test name pool sched =
    let bufs = Native.create p in
    Test.make
      ~name:(Printf.sprintf "native/ll18-%s-w%d" name (Pool.size pool))
      (Staged.stage (fun () ->
           Native.reset bufs;
           Native.run_into ~pool bufs sched))
  in
  List.concat_map
    (fun pool ->
      let nprocs = Pool.size pool in
      [
        test "unfused" pool (Schedule.unfused ~nprocs p);
        test "fused" pool (Schedule.fused ~nprocs ~strip:64 p);
      ])
    pools

let all_tests pools =
  Test.make_grouped ~name:"loopfusion"
    ([
       test_t2_derivation;
       test_multigraph;
       test_fused_schedule;
       test_f20_sim;
       test_f22_sim;
       test_f23_sim;
       test_f26_alignrep;
       test_cache_throughput;
       test_tlb_throughput;
       test_canonical_render;
       test_served_miss_sim;
       test_miss_only_request;
       test_hit_decode;
       test_tune_exact_cold;
       test_tune_exact_memo;
     ]
    @ native_tests pools)

let run (_ : Util.cfg) =
  Util.header "Bechamel micro-benchmarks (wall clock of this implementation)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg_b =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw =
    Pool.with_pool 1 @@ fun w1 ->
    Pool.with_pool 2 @@ fun w2 ->
    Benchmark.all cfg_b instances (all_tests [ w1; w2 ])
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  Util.pr "%-40s %16s@." "benchmark" "ns/run";
  let estimate_of name =
    match Analyze.OLS.estimates (Hashtbl.find results name) with
    | Some (est :: _) -> Some est
    | Some [] | None -> None
  in
  List.iter
    (fun name ->
      match estimate_of name with
      | Some est -> Util.pr "%-40s %16.0f@." name est
      | None -> Util.pr "%-40s %16s@." name "n/a")
    (List.sort String.compare names);
  (* the autotuner's memo cache must make repeated exact-tier
     evaluations cheaper than cold simulations *)
  let ends_with suffix name =
    let nl = String.length name and sl = String.length suffix in
    nl >= sl && String.sub name (nl - sl) sl = suffix
  in
  let find suffix = List.find_opt (ends_with suffix) names in
  (match (find "tune/exact-cold", find "tune/exact-memo") with
  | Some cold_n, Some memo_n -> (
    match (estimate_of cold_n, estimate_of memo_n) with
    | Some cold, Some memo ->
      Util.pr
        "@.memoised exact-tier evaluation vs cold simulation: %.0fx cheaper \
         (%s)@."
        (cold /. Float.max memo 1.0)
        (if memo < cold then "OK" else "FAIL: memo not cheaper")
    | _ -> Util.pr "@.tune memo-vs-cold verdict: estimates unavailable@.")
  | _ -> Util.pr "@.tune memo-vs-cold verdict: tests missing@.")
