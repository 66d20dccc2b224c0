(* Ablation studies for the design choices the paper motivates but does
   not measure in isolation:

   a) the strip-size rule (one strip per array must fit its cache
      partition, paper sec 3.4/4);
   b) associativity-aware partition targets (the (p/assoc)*sp variant
      for set-associative caches, sec 4);
   c) the peeled-phase overhead as processor count grows (the mechanism
      behind the profitability crossover);
   d) the hypernode-aware remote-miss model (the mechanism behind
      spem's dip past 8 Convex processors, Fig 25). *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Partition = Lf_core.Partition

let strip_rule cfg =
  Util.subheader "a) strip size vs misses (fused LL18, Convex, 8 procs)";
  let n = Util.scale cfg 512 128 in
  let p = Lf_kernels.Ll18.program ~n () in
  let machine = Machine.convex in
  let layout = Util.partitioned_layout machine p in
  let rule = Util.strip_for machine p in
  Util.pr "strip from the partition rule: %d@." rule;
  Util.pr "%8s %12s %14s@." "strip" "misses" "cycles";
  List.iter
    (fun strip ->
      let r =
        Exec.run_opts Exec.default_opts
          (Sim.fused ~layout ~machine ~nprocs:8 ~strip p)
      in
      Util.pr "%8d %12d %14.4e%s@." strip r.Exec.total_misses r.Exec.cycles
        (if strip = rule then "   <- rule" else ""))
    (List.sort_uniq compare
       [ 2; 4; max 2 (rule / 2); rule; rule * 2; rule * 4; rule * 16 ])

let assoc_targets cfg =
  Util.subheader
    "b) set-associative partition targets (fused LL18, KSR2 2-way)";
  let n = Util.scale cfg 512 128 in
  let p = Lf_kernels.Ll18.program ~n () in
  let machine = Machine.ksr2 in
  let shape = Util.cache_shape machine in
  let strip = Util.strip_for machine p in
  let run name layout =
    let r =
      Exec.run_opts Exec.default_opts
        (Sim.fused ~layout ~machine ~nprocs:8 ~strip p)
    in
    Util.pr "%-34s %12d misses@." name r.Exec.total_misses
  in
  run "assoc-aware targets ((p/a)*sp)"
    (Partition.cache_partitioned ~cache:shape p.Ir.decls);
  (* naive variant: pretend the cache is direct-mapped when choosing
     targets; starts spread over the full capacity instead of the
     set-index span *)
  run "direct-mapped targets (naive)"
    (Partition.cache_partitioned
       ~cache:{ shape with Partition.assoc = 1 }
       p.Ir.decls);
  run "no partitioning (dense)" (Partition.padded ~pad:0 p.Ir.decls)

let peel_overhead cfg =
  Util.subheader "c) peeled-phase share of fused execution time (LL18, KSR2)";
  let n = Util.scale cfg 512 128 in
  let p = Lf_kernels.Ll18.program ~n () in
  let machine = Machine.ksr2 in
  let layout = Util.partitioned_layout machine p in
  let strip = Util.strip_for machine p in
  Util.pr "%6s %14s %14s %10s@." "P" "fused-phase" "peeled-phase" "overhead";
  List.iter
    (fun nprocs ->
      let r =
        Exec.run_opts Exec.default_opts
          (Sim.fused ~layout ~machine ~nprocs ~strip p)
      in
      let fphase = r.Exec.phase_cycles.(0) in
      let pphase = r.Exec.phase_cycles.(1) in
      Util.pr "%6d %14.4e %14.4e %9.2f%%@." nprocs fphase pphase
        (100.0 *. pphase /. (fphase +. pphase)))
    (Util.cap_procs cfg (Util.scale cfg [ 1; 4; 8; 16; 32; 56 ] [ 1; 2; 4; 8 ]));
  Util.pr
    "The peeled work per processor is constant while the fused work@.\
     shrinks as 1/P: the relative overhead grows with P, which is the@.\
     mechanism behind the profitability crossover of Figure 22.@."

let hypernode_model cfg =
  Util.subheader "d) hypernode-aware remote misses (spem at 16 procs)";
  if cfg.Util.quick then Util.pr "(skipped in --quick mode)@."
  else begin
    let app = Lf_kernels.Apps.spem ~d0:60 ~d1:33 ~d2:33 () in
    let run name machine =
      let r8 =
        Apputil.run_app ~machine ~nprocs:8 ~variant:Apputil.fused_partitioned
          app
      in
      let r16 =
        Apputil.run_app ~machine ~nprocs:16 ~variant:Apputil.fused_partitioned
          app
      in
      Util.pr "%-28s speedup(16)/speedup(8) = %.2f@." name
        (r8.Apputil.cycles /. r16.Apputil.cycles)
    in
    run "two hypernodes of 8 (real)" Machine.convex;
    run "one flat hypernode of 16"
      { Machine.convex with Machine.hypernode = 16 };
    Util.pr
      "With a flat memory the second 8 processors scale; crossing the@.\
       hypernode boundary makes misses remote and flattens the curve.@."
  end

let timestep_amortization cfg =
  Util.subheader
    "e) sequential time-step loop around the sequence (LL18, KSR2)";
  let n = Util.scale cfg 512 128 in
  let p = Lf_kernels.Ll18.program ~n () in
  let machine = Machine.ksr2 in
  let layout = Util.partitioned_layout machine p in
  let strip = Util.strip_for machine p in
  let nprocs = 8 in
  Util.pr "%8s %16s %16s %10s@." "steps" "unfused-cycles" "fused-cycles"
    "gain";
  List.iter
    (fun steps ->
      let u =
        Exec.run_opts Exec.default_opts
          (Sim.unfused ~layout ~machine ~nprocs ~steps p)
      in
      let f =
        Exec.run_opts Exec.default_opts
          (Sim.fused ~layout ~machine ~nprocs ~strip ~steps p)
      in
      Util.pr "%8d %16.4e %16.4e %+9.1f%%@." steps u.Exec.cycles f.Exec.cycles
        (100.0 *. ((u.Exec.cycles /. f.Exec.cycles) -. 1.0)))
    [ 1; 2; 4; 8 ];
  Util.pr
    "Fusion's per-step benefit persists across time steps (the fused@.\
     loop saves the same capacity misses every step); cold misses are@.\
     a one-time cost and wash out of the gain as steps grow.@."

let tlb_effect cfg =
  Util.subheader "f) TLB misses under padding vs partitioning (fused LL18)";
  let n = Util.scale cfg 512 128 in
  let p = Lf_kernels.Ll18.program ~n () in
  let machine = Machine.convex in
  let strip = Util.strip_for machine p in
  Util.pr "%-14s %12s %12s@." "layout" "cache-misses" "tlb-misses";
  List.iter
    (fun (name, layout) ->
      let r =
        Exec.run_opts Exec.default_opts
          (Sim.fused ~layout ~machine ~nprocs:8 ~strip p)
      in
      Util.pr "%-14s %12d %12d@." name r.Exec.total_misses r.Exec.tlb_misses)
    [
      ("pad 0", Util.padded_layout ~pad:0 p);
      ("pad 9", Util.padded_layout ~pad:9 p);
      ("partitioned", Util.partitioned_layout machine p);
    ];
  Util.pr
    "Cache partitioning's gaps cost a few extra pages but do not@.\
     perturb the TLB behaviour (cf. Bacon et al.'s padding-for-TLB@.\
     work discussed in the paper's sec 2.4).@."

let wavefront_vs_peeling cfg =
  Util.subheader
    "g) shift-and-peel vs wavefront scheduling (no peeling, per-diagonal \
     barriers)";
  let machine = Machine.convex in
  let n = Util.scale cfg 512 96 in
  let nprocs = Util.scale cfg 8 4 in
  (* 2-D: Jacobi, both dimensions fused *)
  let p2 = Lf_kernels.Jacobi.program ~n () in
  let d2 = Lf_core.Derive.of_program ~depth:2 p2 in
  let layout2 = Util.partitioned_layout machine p2 in
  let run layout sched =
    Exec.run_opts Exec.default_opts (Sim.of_schedule ~layout ~machine sched)
  in
  let sp2 =
    run layout2
      (Lf_core.Schedule.fused ~strip:(Util.strip_for machine p2) ~derive:d2
         ~nprocs p2)
  in
  let wf2 =
    run layout2
      (Lf_core.Wavefront.schedule ~tile:(Util.scale cfg 64 16) ~derive:d2
         ~nprocs p2)
  in
  Util.pr "2-D Jacobi (%dx%d, %d procs):@." n n nprocs;
  Util.pr "  shift-and-peel: %.4e cycles (%.0f barrier cycles)@."
    sp2.Exec.cycles sp2.Exec.barrier_cycles;
  Util.pr "  wavefront:      %.4e cycles (%.0f barrier cycles)@."
    wf2.Exec.cycles wf2.Exec.barrier_cycles;
  (* 1-D: calc, where the wavefront degenerates to a serial chain *)
  let p1 = Lf_kernels.Calc.program ~n () in
  let layout1 = Util.partitioned_layout machine p1 in
  let sp1 =
    run layout1
      (Lf_core.Schedule.fused ~strip:(Util.strip_for machine p1) ~nprocs p1)
  in
  let wf1 =
    run layout1
      (Lf_core.Wavefront.schedule ~tile:(Util.scale cfg 64 16) ~nprocs p1)
  in
  Util.pr "1-D calc (%dx%d, %d procs):@." n n nprocs;
  Util.pr "  shift-and-peel: %.4e cycles@." sp1.Exec.cycles;
  Util.pr "  wavefront:      %.4e cycles (serial tile chain)@."
    wf1.Exec.cycles;
  Util.pr
    "Peeling keeps all processors busy with one barrier; the wavefront@.\
     pays pipeline fill/drain and one barrier per diagonal, and has no@.\
     parallelism at all when only one dimension is fused.@."

let run cfg =
  Util.header "Ablation studies (design choices)";
  strip_rule cfg;
  assoc_targets cfg;
  peel_overhead cfg;
  hypernode_model cfg;
  timestep_amortization cfg;
  tlb_effect cfg;
  wavefront_vs_peeling cfg
