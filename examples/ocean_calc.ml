(* The calc ocean-model kernel end-to-end on the simulated KSR2:
   derivation (Table 2), fused-vs-unfused speedups across processor
   counts, and the profitability crossover the paper discusses.

     dune exec examples/ocean_calc.exe *)

module Ir = Lf_ir.Ir
module Derive = Lf_core.Derive
module Partition = Lf_core.Partition
module Profit = Lf_core.Profit
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch

let () =
  let n = 256 in
  let p = Lf_kernels.Calc.program ~n () in
  Fmt.pr "calc: five parallel loop nests over six %dx%d arrays@.@." n n;

  let d = Derive.of_program ~depth:1 p in
  Fmt.pr "Shift-and-peel amounts (paper Table 2: 0,0,2,3,3 / 0,0,2,3,3):@.%a@."
    Derive.pp d;

  let machine = Machine.ksr2 in
  let cache =
    {
      Partition.capacity = machine.Machine.cache.Lf_cache.Cache.capacity;
      line = machine.Machine.cache.Lf_cache.Cache.line;
      assoc = machine.Machine.cache.Lf_cache.Cache.assoc;
    }
  in
  let layout = Partition.cache_partitioned ~cache p.Ir.decls in
  (* the full sweep as one request batch: 13 simulations, deduplicated
     and sharded across host domains by Lf_batch *)
  let procs = [ 1; 2; 4; 8; 12; 16 ] in
  let mode = Sim.Run_compressed in
  let requests =
    Sim.unfused ~mode ~layout ~machine ~nprocs:1 p
    :: List.concat_map
         (fun nprocs ->
           [
             Sim.unfused ~mode ~layout ~machine ~nprocs p;
             Sim.fused ~mode ~layout ~machine ~nprocs ~strip:10 p;
           ])
         procs
  in
  let outcomes, _ =
    Batch.run_with Lf_batch.Run_opts.(without_store default) requests
  in
  let results = Batch.results_exn outcomes in
  let base = results.(0).Exec.cycles in
  Fmt.pr "@.Simulated %s, cache-partitioned layout:@." machine.Machine.mname;
  Fmt.pr "%6s %16s %14s %10s %14s@." "P" "unfused-speedup" "fused-speedup"
    "gain" "profitable?";
  List.iteri
    (fun i nprocs ->
      let u = results.((2 * i) + 1) in
      let f = results.((2 * i) + 2) in
      let e =
        Profit.estimate ~nprocs ~cache_bytes:cache.Partition.capacity p
      in
      Fmt.pr "%6d %16.2f %14.2f %+9.1f%% %14s@." nprocs
        (base /. u.Exec.cycles) (base /. f.Exec.cycles)
        (100.0 *. ((u.Exec.cycles /. f.Exec.cycles) -. 1.0))
        (if e.Profit.profitable then "yes" else "no"))
    procs;
  Fmt.pr
    "@.The benefit of fusion shrinks as each processor's share of the@.\
     data begins to fit in its cache -- the crossover the paper's@.\
     Figure 22 shows and its profitability analysis predicts.@."
