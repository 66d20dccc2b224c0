(* Engine benchmark: wall-clock cost of the simulator itself, comparing
   the serial engine, the host-domain-parallel engine (--jobs), the
   scalar miss-only replay and the run-compressed line-granular engine
   — while verifying that every variant produces bit-identical
   observables.

   Simulated results never depend on jobs or mode (see exec.mli); this
   experiment demonstrates it on a full-size workload and records the
   measured host speedups for BENCH_<n>.json. *)

module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec

let nprocs = 8

let time f =
  let t = Util.elapsed_timer () in
  let r = f () in
  (r, t ())

(* Every observable of a result. *)
let counters_equal (a : Exec.result) (b : Exec.result) =
  a.Exec.cycles = b.Exec.cycles
  && a.Exec.phase_cycles = b.Exec.phase_cycles
  && a.Exec.barrier_cycles = b.Exec.barrier_cycles
  && a.Exec.total_refs = b.Exec.total_refs
  && a.Exec.total_misses = b.Exec.total_misses
  && a.Exec.cold_misses = b.Exec.cold_misses
  && a.Exec.tlb_misses = b.Exec.tlb_misses
  && a.Exec.proc_misses = b.Exec.proc_misses

let run cfg =
  Util.header "Engine: host-domain parallelism and the two replay tiers";
  let machine = Machine.convex in
  let n = Util.scale cfg 512 128 in
  let steps = Util.scale cfg 4 2 in
  let p = Lf_kernels.Ll18.program ~n () in
  let layout = Util.partitioned_layout machine p in
  let strip = Util.strip_for machine p in
  let jobs = max 4 (Exec.default_jobs ()) in
  let host = Domain.recommended_domain_count () in
  (* routed through the batch layer with computation forced (a cold
     policy): this experiment measures engine wall clock, so a store hit
     would measure nothing — but fresh results still warm the store *)
  let go ~mode ~jobs () =
    Lf_batch.Batch.run_one_with
      Lf_batch.Run_opts.(cold (with_jobs jobs !Util.opts))
      (Lf_machine.Sim.fused ~layout ~machine ~nprocs ~strip ~steps ~mode p)
  in
  (* warm up allocator/caches, then measure the serial engines before
     any host domain is spawned (idle pool domains tax the single-domain
     GC), and the parallel engines after *)
  ignore
    (Exec.run_opts (Exec.opts ~jobs:1 ())
       (Lf_machine.Sim.fused ~layout ~machine ~nprocs ~strip p));
  let serial_miss, t_sm = time (go ~mode:Exec.Miss_only ~jobs:1) in
  let serial_runs, t_sr = time (go ~mode:Exec.Run_compressed ~jobs:1) in
  let par_miss, t_pm = time (go ~mode:Exec.Miss_only ~jobs) in
  let par_runs, t_pr = time (go ~mode:Exec.Run_compressed ~jobs) in
  Exec.release_shared_pool ();
  let identical = counters_equal serial_miss par_miss in
  let runs_match =
    counters_equal serial_miss serial_runs
    && counters_equal serial_miss par_runs
  in
  Util.pr "workload: fused LL18 %dx%d, %d steps, %d simulated processors@." n
    n steps nprocs;
  Util.pr "host: %d core(s) available, --jobs %d@." host jobs;
  Util.pr "@.%-28s  %10s  %9s@." "engine" "wall (s)" "vs serial";
  let row label t =
    Util.pr "%-28s  %10.2f  %8.2fx@." label t (t_sm /. t)
  in
  row "miss-only, serial" t_sm;
  row (Printf.sprintf "miss-only, --jobs %d" jobs) t_pm;
  row "run-compressed, serial" t_sr;
  row (Printf.sprintf "run-compressed, --jobs %d" jobs) t_pr;
  Util.pr "@.simulated cycles: %.0f   total misses: %d@."
    serial_miss.Exec.cycles serial_miss.Exec.total_misses;
  Util.pr "parallel miss-only bit-identical to serial:             %b@."
    identical;
  Util.pr "run-compressed counters match miss-only serial exactly: %b@."
    runs_match;
  if not (identical && runs_match) then
    failwith "engine variants disagree — determinism bug";
  Util.note ~id:"eng"
    [
      ("kernel", Util.Str "LL18");
      ("n", Util.Int n);
      ("steps", Util.Int steps);
      ("nprocs", Util.Int nprocs);
      ("jobs", Util.Int jobs);
      ("host_cores", Util.Int host);
      ("simulated_cycles", Util.Float serial_miss.Exec.cycles);
      ("total_misses", Util.Int serial_miss.Exec.total_misses);
      ("serial_miss_only_s", Util.Float t_sm);
      ("parallel_miss_only_s", Util.Float t_pm);
      ("serial_runs_s", Util.Float t_sr);
      ("parallel_runs_s", Util.Float t_pr);
      ("parallel_speedup", Util.Float (t_sm /. t_pm));
      ("run_vs_scalar_replay_speedup", Util.Float (t_sm /. t_sr));
      ("bit_identical", Util.Bool (identical && runs_match));
      ("run_compressed_counters_match", Util.Bool runs_match);
    ]
