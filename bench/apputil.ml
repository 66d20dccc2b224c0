(* Whole-application simulation: an application is a set of fusible
   parallel loop sequences plus a non-fusible remainder (see
   Lf_kernels.Apps).  Each part is simulated independently and the cycle
   counts are summed; speedups are reported against the unfused
   single-processor run, as in the paper's Figures 21 and 25. *)

module Ir = Lf_ir.Ir
module Apps = Lf_kernels.Apps
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Machine = Lf_machine.Machine
module Partition = Lf_core.Partition

type variant = {
  v_fused : bool;  (* apply shift-and-peel fusion to the sequences *)
  v_partitioned : bool;  (* cache-partitioned memory layout *)
}

let layout_for variant machine (p : Ir.program) =
  if variant.v_partitioned then Util.partitioned_layout machine p
  else Util.contiguous_layout p

type app_result = { cycles : float; misses : int }

let run_app ~machine ~nprocs ~variant (app : Apps.t) =
  let run_seq (p : Ir.program) =
    let layout = layout_for variant machine p in
    Exec.run_opts Exec.default_opts
      (if variant.v_fused then
         let strip = Util.strip_for machine p in
         Sim.fused ~layout ~machine ~nprocs ~strip p
       else Sim.unfused ~layout ~machine ~nprocs p)
  in
  let acc_cycles = ref 0.0 and acc_misses = ref 0 in
  List.iter
    (fun seq ->
      let r = run_seq seq in
      acc_cycles := !acc_cycles +. r.Exec.cycles;
      acc_misses := !acc_misses + r.Exec.total_misses)
    app.Apps.sequences;
  (match app.Apps.remainder with
  | None -> ()
  | Some rem ->
    let layout = layout_for variant machine rem in
    let r =
      Exec.run_opts Exec.default_opts
        (Sim.unfused ~layout ~machine ~nprocs rem)
    in
    let reps = float_of_int app.Apps.remainder_reps in
    acc_cycles := !acc_cycles +. (reps *. r.Exec.cycles);
    acc_misses :=
      !acc_misses + (app.Apps.remainder_reps * r.Exec.total_misses));
  { cycles = !acc_cycles; misses = !acc_misses }

let unfused_partitioned = { v_fused = false; v_partitioned = true }
let fused_partitioned = { v_fused = true; v_partitioned = true }
let unfused_contiguous = { v_fused = false; v_partitioned = false }
let fused_contiguous = { v_fused = true; v_partitioned = false }
