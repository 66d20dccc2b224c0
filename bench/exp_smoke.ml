(* Budgeted engine smoke tier (`bench --smoke`): scaled-down versions
   of the f18/f20/f23 workloads run through both the scalar replay and
   the run-compressed engine, with a hard identity check on every
   observable.  Sized for CI — seconds, not the ten-minute full sweep —
   so a regression in the batched engine is caught on every push. *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec

let counters_equal (a : Exec.result) (b : Exec.result) =
  a.Exec.cycles = b.Exec.cycles
  && a.Exec.phase_cycles = b.Exec.phase_cycles
  && a.Exec.barrier_cycles = b.Exec.barrier_cycles
  && a.Exec.total_refs = b.Exec.total_refs
  && a.Exec.total_misses = b.Exec.total_misses
  && a.Exec.cold_misses = b.Exec.cold_misses
  && a.Exec.tlb_misses = b.Exec.tlb_misses
  && a.Exec.proc_misses = b.Exec.proc_misses

let time f =
  let t = Util.elapsed_timer () in
  let r = f () in
  (r, t ())

(* One workload: run scalar and run-compressed, check bit-identity,
   report the wall-clock ratio (unless timings are off).  Returns false
   on mismatch. *)
let check (cfg : Util.cfg) ~label ~machine ~layout ~strip ~nprocs p =
  (* both engine tiers go through Batch.run_with; on a warm store the
     whole tier is answered from persisted results and the identity
     check exercises the store's bit-exact round trip instead *)
  let go mode () =
    match
      Util.run_requests
        [
          Lf_machine.Sim.unfused ~mode ~layout ~machine ~nprocs p;
          Lf_machine.Sim.fused ~mode ~layout ~machine ~nprocs ~strip p;
        ]
    with
    | [| u; f |] -> (u, f)
    | _ -> assert false
  in
  let (su, sf), t_scalar = time (go Lf_machine.Sim.Miss_only) in
  let (ru, rf), t_runs = time (go Lf_machine.Sim.Run_compressed) in
  let ok = counters_equal su ru && counters_equal sf rf in
  let verdict = if ok then "identical" else "MISMATCH" in
  if cfg.Util.timings then
    Util.pr "%-12s  scalar %6.2fs  run-compressed %6.2fs  (%4.1fx)  %s@." label
      t_scalar t_runs
      (t_scalar /. Float.max 1e-9 t_runs)
      verdict
  else Util.pr "%-12s  %s@." label verdict;
  Util.note ~id:"smoke"
    [
      ("workload", Util.Str label);
      ("scalar_s", Util.Float t_scalar);
      ("run_compressed_s", Util.Float t_runs);
      ("identical", Util.Bool ok);
    ];
  ok

let run (cfg : Util.cfg) =
  Util.header "Engine smoke: scalar vs run-compressed identity (scaled down)";
  let ok = ref true in
  let with_workload label machine p =
    let layout = Util.partitioned_layout machine p in
    let strip = Util.strip_for machine p in
    if not (check cfg ~label ~machine ~layout ~strip ~nprocs:4 p) then
      ok := false
  in
  (* f18: padding sweep geometry (padded layout, Convex) *)
  let p18 = Lf_kernels.Ll18.program ~n:192 () in
  let strip18 = Util.strip_for Machine.convex p18 in
  List.iter
    (fun pad ->
      let layout = Util.padded_layout ~pad p18 in
      if
        not
          (check cfg
             ~label:(Printf.sprintf "f18 pad:%d" pad)
             ~machine:Machine.convex ~layout ~strip:strip18 ~nprocs:4 p18)
      then ok := false)
    [ 1; 5 ];
  (* f20: cache partitioning, both machines *)
  with_workload "f20 ksr2" Machine.ksr2 (Lf_kernels.Ll18.program ~n:192 ());
  with_workload "f20 convex" Machine.convex (Lf_kernels.Ll18.program ~n:192 ());
  (* f23: Convex kernel sweep *)
  with_workload "f23 ll18" Machine.convex (Lf_kernels.Ll18.program ~n:256 ());
  with_workload "f23 calc" Machine.convex (Lf_kernels.Calc.program ~n:256 ());
  with_workload "f23 filter" Machine.convex
    (Lf_kernels.Filter.program ~rows:320 ~cols:128 ());
  if !ok then Util.pr "@.engine smoke: all workloads bit-identical@."
  else failwith "engine smoke: run-compressed engine diverged from scalar"
