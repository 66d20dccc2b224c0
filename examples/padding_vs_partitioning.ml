(* Cache conflicts after fusion: array padding versus cache
   partitioning on the fused LL18 loops (paper Figures 17-20).

     dune exec examples/padding_vs_partitioning.exe *)

module Ir = Lf_ir.Ir
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch

let () =
  let n = 256 in
  let p = Lf_kernels.Ll18.program ~n () in
  let machine = Machine.convex in
  Fmt.pr
    "Fused LL18, nine %dx%d arrays, %s (1 MB direct-mapped caches).@.@." n n
    machine.Machine.mname;
  let strip = 10 in
  (* the whole layout sweep is one batch of first-class simulation
     requests: deduplicated, sharded across host domains, and (when a
     store is passed) answered from persisted results *)
  let request layout =
    Sim.fused ~mode:Sim.Run_compressed ~layout ~machine ~nprocs:4 ~strip p
  in
  let cache = { Partition.capacity = 1024 * 1024; line = 64; assoc = 1 } in
  let part = Partition.cache_partitioned ~cache p.Ir.decls in
  let layouts =
    (* power-of-two arrays, no padding: pathological conflicts *)
    ("dense (pad 0)", Partition.padded ~pad:0 p.Ir.decls)
    :: List.map
         (fun pad ->
           (Printf.sprintf "pad %d" pad, Partition.padded ~pad p.Ir.decls))
         [ 1; 3; 5; 9; 15; 19 ]
    @ [ ("cache partitioning", part) ]
  in
  let outcomes, _ =
    Batch.run_with
      Lf_batch.Run_opts.(without_store default)
      (List.map (fun (_, l) -> request l) layouts)
  in
  let results = Batch.results_exn outcomes in
  Fmt.pr "%-22s %12s %12s@." "layout" "misses" "cycles";
  List.iteri
    (fun i (name, _) ->
      let r = results.(i) in
      Fmt.pr "%-22s %12d %12.3e@." name r.Exec.total_misses r.Exec.cycles)
    layouts;
  let overhead = Partition.overhead_bytes part p.Ir.decls in
  Fmt.pr
    "@.Padding perturbs the conflict pattern unpredictably; cache@.\
     partitioning places each array in its own cache partition@.\
     (memory overhead: %d KB of gaps) and minimises misses directly.@."
    (overhead / 1024)
