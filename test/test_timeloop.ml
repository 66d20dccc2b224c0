(* Tests for time-stepped execution (a sequential outer loop around the
   parallel loop sequence, cf. the paper's §1 pointer to [21]) and for
   the TLB model. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Cache = Lf_cache.Cache

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* LL18 is iterative (zr/zz updated from zu/zv each step): a natural
   time-stepped workload. *)

let test_interp_steps_progress () =
  let p = Lf_kernels.Ll18.program ~n:12 () in
  let s1 = Interp.run ~steps:1 p in
  let s3 = Interp.run ~steps:3 p in
  check bool "more steps change the state" false (Interp.equal s1 s3)

let test_schedule_steps_equivalence () =
  let p = Lf_kernels.Ll18.program ~n:24 () in
  let reference = Interp.run ~steps:4 p in
  List.iter
    (fun nprocs ->
      let sched = Schedule.fused ~nprocs ~strip:5 p in
      List.iter
        (fun order ->
          let st = Schedule.execute ~order ~steps:4 sched in
          check bool
            (Printf.sprintf "4 steps P=%d" nprocs)
            true (Interp.equal reference st))
        [ Schedule.Natural; Schedule.Interleaved ])
    [ 1; 3 ]

let test_exec_steps_semantics () =
  let p = Lf_kernels.Jacobi.program ~n:24 () in
  let req = Sim.fused ~machine:Machine.convex ~nprocs:2 ~strip:4 ~steps:5 p in
  ignore (Tutil.run_walked req);
  check bool "5 steps of the simulated schedule" true
    (Interp.equal (Interp.run ~steps:5 p)
       (Schedule.execute ~steps:5 (Sim.schedule_of req)))

let test_steps_amortize_cold_misses () =
  (* with data fitting in cache, later steps hit: misses grow far less
     than linearly with steps *)
  let p = Lf_kernels.Jacobi.program ~n:64 () in
  let m1 =
    (Exec.run_opts Exec.default_opts
       (Sim.fused ~machine:Machine.convex ~nprocs:1 ~strip:8 ~steps:1 p))
      .Exec.total_misses
  in
  let m8 =
    (Exec.run_opts Exec.default_opts
       (Sim.fused ~machine:Machine.convex ~nprocs:1 ~strip:8 ~steps:8 p))
      .Exec.total_misses
  in
  check bool "warm steps nearly free" true (m8 < m1 * 2)

let test_steps_barrier_accounting () =
  let p = Lf_kernels.Jacobi.program ~n:24 () in
  let m = Machine.convex in
  let r1 =
    Exec.run_opts Exec.default_opts
      (Sim.fused ~machine:m ~nprocs:2 ~strip:4 ~steps:1 p)
  in
  let r3 =
    Exec.run_opts Exec.default_opts
      (Sim.fused ~machine:m ~nprocs:2 ~strip:4 ~steps:3 p)
  in
  let bc = Machine.barrier_cost m ~nprocs:2 in
  (* 2 phases per step: steps*2 - 1 barriers *)
  check (Alcotest.float 1e-6) "1 step" (1.0 *. bc) r1.Exec.barrier_cycles;
  check (Alcotest.float 1e-6) "3 steps" (5.0 *. bc) r3.Exec.barrier_cycles

(* ------------------------------------------------------------------ *)
(* TLB model                                                           *)

let test_tlb_counts () =
  (* touching far more pages than TLB entries must miss repeatedly *)
  let p = Lf_kernels.Ll18.program ~n:256 () in
  (* 9 arrays x 512KB = 4.6MB >> 120 pages *)
  let r =
    Exec.run_opts Exec.default_opts
      (Sim.unfused ~machine:Machine.convex ~nprocs:1 p)
  in
  check bool "tlb misses counted" true (r.Exec.tlb_misses > 1000)

let test_tlb_disabled () =
  let m = { Machine.convex with Machine.tlb = None } in
  let p = Lf_kernels.Jacobi.program ~n:32 () in
  let r =
    Exec.run_opts Exec.default_opts (Sim.unfused ~machine:m ~nprocs:1 p)
  in
  check int "no tlb, no misses" 0 r.Exec.tlb_misses

let test_tlb_penalty_slows () =
  let p = Lf_kernels.Ll18.program ~n:128 () in
  let with_tlb =
    Exec.run_opts Exec.default_opts
      (Sim.unfused ~machine:Machine.convex ~nprocs:1 p)
  in
  let without =
    Exec.run_opts Exec.default_opts
      (Sim.unfused ~machine:{ Machine.convex with Machine.tlb = None }
         ~nprocs:1 p)
  in
  check bool "tlb penalty costs cycles" true
    (with_tlb.Exec.cycles > without.Exec.cycles)

let test_tlb_fully_assoc_small_set () =
  (* a working set within the TLB reach stops missing after warmup *)
  let cfg = { Cache.capacity = 8 * 4096; line = 4096; assoc = 8 } in
  let t = Cache.create cfg in
  for _pass = 1 to 4 do
    for page = 0 to 7 do
      ignore (Cache.access t (page * 4096))
    done
  done;
  check int "only cold misses" 8 (Cache.stats t).Cache.s_misses

let suite =
  [
    ("interp steps progress", `Quick, test_interp_steps_progress);
    ("schedule steps equivalence", `Quick, test_schedule_steps_equivalence);
    ("exec steps semantics", `Quick, test_exec_steps_semantics);
    ("steps amortize cold misses", `Quick, test_steps_amortize_cold_misses);
    ("steps barrier accounting", `Quick, test_steps_barrier_accounting);
    ("tlb counts", `Quick, test_tlb_counts);
    ("tlb disabled", `Quick, test_tlb_disabled);
    ("tlb penalty slows", `Quick, test_tlb_penalty_slows);
    ("tlb fully-assoc small set", `Quick, test_tlb_fully_assoc_small_set);
  ]
