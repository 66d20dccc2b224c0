(* Event-counter observability: attach an lf_obs sink to a simulated
   run, attribute conflict misses to the arrays causing them, export a
   Chrome trace, and calibrate the autotuner's analytic tier from the
   recorded profile.

     dune exec examples/observability.exe *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Obs = Lf_obs.Obs
module Space = Lf_tune.Space
module Cost = Lf_tune.Cost

let () =
  let n = 256 in
  let p = Lf_kernels.Ll18.program ~n () in
  let machine = Machine.convex in
  let nprocs = 4 in
  let strip = 10 in
  Fmt.pr "Fused LL18, nine %dx%d arrays, %s, %d processors.@.@." n n
    machine.Machine.mname nprocs;

  (* 1. Profile the pathological layout: dense power-of-two arrays on a
     direct-mapped cache.  The sink is passive — the run's cycle and
     miss counts are identical with or without it. *)
  let sink = Obs.create ~layout:"contiguous" () in
  let layout = Lf_core.Partition.contiguous p.Ir.decls in
  let r =
    Exec.run_opts (Exec.opts ~sink ())
      (Lf_machine.Sim.fused ~layout ~machine ~nprocs ~strip p)
  in
  Fmt.pr "contiguous layout: %.3e cycles, %d misses@.@." r.Exec.cycles
    r.Exec.total_misses;
  Fmt.pr "%a@." (Obs.pp_table ~by:Obs.By_array) sink;

  (* 2. The same data grouped by phase: the peeled phase is tiny. *)
  Fmt.pr "%a@." (Obs.pp_table ~by:Obs.By_phase) sink;

  (* 3. Export a Chrome trace (open in chrome://tracing or Perfetto). *)
  let file = Filename.temp_file "lf_obs_" ".json" in
  let oc = open_out file in
  output_string oc (Obs.trace_json sink);
  close_out oc;
  Fmt.pr "Chrome trace (%d events): %s@.@."
    (List.length (Obs.events sink))
    file;

  (* 4. Calibrate the autotuner's analytic tier with the measured miss
     factor instead of its layout heuristic. *)
  let calibration = Cost.calibration_of_sink sink in
  let cand =
    { Space.variant = Space.Fused { clustered = false; strip };
      layout = Space.Contiguous }
  in
  Fmt.pr "conflict factor for the contiguous layout:@.";
  Fmt.pr "  heuristic %.3f, measured %.3f@."
    (Cost.conflict_factor ~machine cand)
    (Cost.conflict_factor ~calibration ~machine cand);

  (* 5. Cache partitioning erases the cross-array column entirely. *)
  let psink = Obs.create ~layout:"partitioned" () in
  let playout = Machine.partitioned_layout machine p in
  let pr =
    Exec.run_opts (Exec.opts ~sink:psink ())
      (Lf_machine.Sim.fused ~layout:playout ~machine ~nprocs ~strip p)
  in
  let t = Obs.totals sink and pt = Obs.totals psink in
  Fmt.pr "@.partitioned layout: %.3e cycles, %d misses@." pr.Exec.cycles
    pr.Exec.total_misses;
  Fmt.pr
    "cross-array conflict misses: %d (contiguous) -> %d (partitioned)@."
    t.Obs.t_cross pt.Obs.t_cross
