(* Tests for the SSMM simulator: cost model, semantics preservation
   under simulation, and the locality phenomena the paper relies on. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let test_remote_fraction () =
  check (Alcotest.float 1e-9) "within hypernode" 0.0
    (Machine.remote_fraction Machine.convex ~nprocs:8);
  check (Alcotest.float 1e-9) "two hypernodes" 0.5
    (Machine.remote_fraction Machine.convex ~nprocs:16);
  check bool "ksr2 local below 32" true
    (Machine.remote_fraction Machine.ksr2 ~nprocs:32 = 0.0);
  check bool "ksr2 remote at 56" true
    (Machine.remote_fraction Machine.ksr2 ~nprocs:56 > 0.0)

let test_miss_penalty_monotone () =
  let p8 = Machine.miss_penalty Machine.convex ~nprocs:8 in
  let p16 = Machine.miss_penalty Machine.convex ~nprocs:16 in
  check bool "remote costs more" true (p16 > p8)

let test_barrier_cost () =
  let b1 = Machine.barrier_cost Machine.ksr2 ~nprocs:1 in
  let b56 = Machine.barrier_cost Machine.ksr2 ~nprocs:56 in
  check bool "grows with procs" true (b56 > b1)

(* The engine walks the schedule it simulates, and that schedule
   computes the reference interpreter's values. *)
let test_simulation_preserves_semantics () =
  List.iter
    (fun p ->
      let layout = Partition.contiguous p.Ir.decls in
      let req =
        Sim.fused ~layout ~machine:Machine.convex ~nprocs:3 ~strip:4 p
      in
      ignore (Tutil.run_walked req);
      check bool "schedule equals reference" true
        (Interp.equal (Interp.run p) (Schedule.execute (Sim.schedule_of req))))
    [
      Lf_kernels.Ll18.program ~n:24 ();
      Lf_kernels.Calc.program ~n:24 ();
      Lf_kernels.Jacobi.program ~n:24 ();
    ]

let test_refs_counted () =
  (* the tiny chain does 1 read + 1 write per iteration per nest *)
  let p = Tutil.chain_program ~lo:0 ~hi:9 [ [ 0 ]; [ 0 ] ] in
  let r =
    Exec.run_opts Exec.default_opts
      (Sim.unfused ~machine:Machine.convex ~nprocs:1 p)
  in
  check int "4 refs per iteration total" 40 r.Exec.total_refs

let test_cold_misses_match_footprint () =
  (* streaming a fresh array: cold misses = lines touched *)
  let p = Tutil.chain_program ~lo:0 ~hi:511 [ [ 0 ] ] in
  let r =
    Exec.run_opts Exec.default_opts
      (Sim.unfused ~machine:Machine.convex ~nprocs:1 p)
  in
  (* two arrays of 512 elements (read a0, write a1): 8B elements, 64B
     lines -> 64 lines each; a0/a1 have extent 515 (halo), same lines *)
  check bool "cold misses close to footprint" true
    (r.Exec.cold_misses >= 128 && r.Exec.cold_misses <= 132)

let test_fusion_reduces_misses_big_data () =
  let p = Lf_kernels.Calc.program ~n:128 () in
  let machine = Machine.ksr2 in
  let layout = Partition.cache_partitioned
      ~cache:{ Partition.capacity = machine.Machine.cache.Lf_cache.Cache.capacity;
               line = 64; assoc = 2 } p.Ir.decls in
  let u =
    Exec.run_opts Exec.default_opts (Sim.unfused ~layout ~machine ~nprocs:1 p)
  in
  let f =
    Exec.run_opts Exec.default_opts
      (Sim.fused ~layout ~machine ~nprocs:1 ~strip:8 p)
  in
  check bool "fused has fewer misses" true
    (f.Exec.total_misses < u.Exec.total_misses);
  check bool "fused is faster" true (f.Exec.cycles < u.Exec.cycles)

let test_partitioning_beats_contiguous () =
  (* power-of-two arrays in a direct-mapped cache: contiguous placement
     conflicts badly; partitioning eliminates the cross-conflicts *)
  let p = Lf_kernels.Ll18.program ~n:128 () in
  let machine = Machine.convex in
  let cache = { Partition.capacity = 1024 * 1024; line = 64; assoc = 1 } in
  let cont =
    Exec.run_opts Exec.default_opts
      (Sim.fused ~layout:(Partition.padded ~pad:0 p.Ir.decls) ~machine ~nprocs:2
         ~strip:8 p)
  in
  let part =
    Exec.run_opts Exec.default_opts
      (Sim.fused ~layout:(Partition.cache_partitioned ~cache p.Ir.decls)
         ~machine ~nprocs:2 ~strip:8 p)
  in
  check bool "partitioned far fewer misses" true
    (part.Exec.total_misses * 2 < cont.Exec.total_misses)

let test_proc0_misses () =
  let p = Lf_kernels.Jacobi.program ~n:64 () in
  let r =
    Exec.run_opts Exec.default_opts
      (Sim.unfused ~machine:Machine.convex ~nprocs:4 p)
  in
  check int "proc0 field" r.Exec.proc_misses.(0) (Exec.proc0_misses r);
  check int "per-proc misses sum" r.Exec.total_misses
    (Array.fold_left ( + ) 0 r.Exec.proc_misses)

let test_barrier_count () =
  (* unfused K nests -> K-1 barriers; fused -> 1 *)
  let p = Lf_kernels.Ll18.program ~n:24 () in
  let m = Machine.convex in
  let u =
    Exec.run_opts Exec.default_opts (Sim.unfused ~machine:m ~nprocs:2 p)
  in
  let f =
    Exec.run_opts Exec.default_opts (Sim.fused ~machine:m ~nprocs:2 ~strip:4 p)
  in
  let bc = Machine.barrier_cost m ~nprocs:2 in
  check (Alcotest.float 1e-6) "unfused barriers" (2.0 *. bc) u.Exec.barrier_cycles;
  check (Alcotest.float 1e-6) "fused barrier" bc f.Exec.barrier_cycles

let test_speedup_helper () =
  check (Alcotest.float 1e-9) "speedup" 2.0
    (Exec.speedup ~baseline_cycles:10.0
       {
         Exec.cycles = 5.0;
         phase_cycles = [||];
         barrier_cycles = 0.0;
         total_refs = 0;
         total_misses = 0;
         cold_misses = 0;
         tlb_misses = 0;
         proc_misses = [||];
       })

let test_padding_changes_misses () =
  (* padding perturbs the conflict pattern: at least two different pad
     values give different miss counts on the fused loop *)
  let p = Lf_kernels.Ll18.program ~n:64 () in
  let machine = Machine.convex in
  let run pad =
    (Exec.run_opts Exec.default_opts
       (Sim.fused ~layout:(Partition.padded ~pad p.Ir.decls) ~machine ~nprocs:2
          ~strip:8 p)).Exec.total_misses
  in
  let ms = List.map run [ 0; 1; 3; 5 ] in
  check bool "padding matters" true
    (List.length (List.sort_uniq compare ms) > 1)

let test_parallel_execution_time_shrinks () =
  let p = Lf_kernels.Calc.program ~n:96 () in
  let layout = Partition.contiguous p.Ir.decls in
  let cycles nprocs =
    (Exec.run_opts Exec.default_opts
       (Sim.unfused ~layout ~machine:Machine.ksr2 ~nprocs p))
      .Exec.cycles
  in
  let t1 = cycles 1 and t4 = cycles 4 in
  check bool "4 procs faster than 1" true (t4 < t1);
  check bool "speedup at most 4x-ish" true (t1 /. t4 < 4.5)

let suite =
  [
    ("remote fraction", `Quick, test_remote_fraction);
    ("miss penalty monotone", `Quick, test_miss_penalty_monotone);
    ("barrier cost", `Quick, test_barrier_cost);
    ("simulation preserves semantics", `Quick, test_simulation_preserves_semantics);
    ("refs counted", `Quick, test_refs_counted);
    ("cold misses match footprint", `Quick, test_cold_misses_match_footprint);
    ("fusion reduces misses", `Quick, test_fusion_reduces_misses_big_data);
    ("partitioning beats contiguous", `Quick, test_partitioning_beats_contiguous);
    ("proc0 misses", `Quick, test_proc0_misses);
    ("barrier count", `Quick, test_barrier_count);
    ("speedup helper", `Quick, test_speedup_helper);
    ("padding changes misses", `Quick, test_padding_changes_misses);
    ("parallel time shrinks", `Quick, test_parallel_execution_time_shrinks);
  ]
