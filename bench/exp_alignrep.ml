(* Figure 26: shift-and-peel (peeling) versus the alignment+replication
   baseline of Callahan / Appelbe & Smith, on the fused LL18 loops. *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Alignrep = Lf_core.Alignrep
module Schedule = Lf_core.Schedule
module Partition = Lf_core.Partition

let run_alignrep ~machine ~nprocs (r : Alignrep.result) =
  let layout = Util.partitioned_layout machine r.Alignrep.prog in
  let strip = Util.strip_for machine r.Alignrep.prog in
  let sched = Alignrep.schedule ~nprocs ~strip r in
  Exec.run_opts Exec.default_opts (Sim.of_schedule ~layout ~machine sched)

let compare_machine cfg machine procs =
  let n = Util.scale cfg 512 128 in
  let p = Lf_kernels.Ll18.program ~n () in
  match Alignrep.transform p with
  | Error m -> Util.pr "alignment/replication not applicable: %s@." m
  | Ok r ->
    Util.pr
      "alignment/replication for LL18: %d replicated statements, arrays \
       copied: %s (paper: two statements, two arrays)@."
      r.Alignrep.replicated_stmts
      (String.concat ", " r.Alignrep.copied_arrays);
    let layout = Util.partitioned_layout machine p in
    let strip = Util.strip_for machine p in
    let base =
      (Exec.run_opts Exec.default_opts
         (Sim.unfused ~layout ~machine ~nprocs:1 p))
        .Exec.cycles
    in
    let rows =
      List.map
        (fun nprocs ->
          let f =
            Exec.run_opts Exec.default_opts
              (Sim.fused ~layout ~machine ~nprocs ~strip p)
          in
          let a = run_alignrep ~machine ~nprocs r in
          (nprocs, [ base /. f.Exec.cycles; base /. a.Exec.cycles ]))
        procs
    in
    Util.speedup_table ~labels:[ "peeling"; "align/replic" ] rows

let fig26 cfg =
  Util.header "Figure 26: peeling vs alignment/replication for LL18";
  Util.subheader "(a) KSR2";
  compare_machine cfg Machine.ksr2
    (Util.cap_procs cfg
       (Util.scale cfg [ 1; 2; 4; 8; 16; 24; 32; 40; 48; 56 ] [ 1; 2; 4; 8 ]));
  Util.subheader "(b) Convex";
  compare_machine cfg Machine.convex
    (Util.cap_procs cfg (Util.scale cfg [ 1; 2; 4; 8; 12; 16 ] [ 1; 2; 4; 8 ]));
  Util.pr
    "@.Expected shape: peeling wins everywhere; the replicated copy@.\
     loops and statements cost extra memory traffic and computation.@."
