(* Tests for wavefront scheduling, the no-peeling alternative. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Derive = Lf_core.Derive
module Wavefront = Lf_core.Wavefront

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let test_jacobi_2d_semantics () =
  let p = Lf_kernels.Jacobi.program ~n:40 () in
  let d = Derive.of_program ~depth:2 p in
  let reference = Interp.run p in
  List.iter
    (fun (nprocs, tile) ->
      let sched = Wavefront.schedule ~tile ~derive:d ~nprocs p in
      List.iter
        (fun order ->
          check bool
            (Printf.sprintf "jacobi wavefront P=%d tile=%d" nprocs tile)
            true
            (Interp.equal reference (Schedule.execute ~order sched)))
        [ Schedule.Natural; Schedule.Reversed; Schedule.Interleaved ])
    [ (1, 8); (2, 8); (4, 5); (3, 16) ]

let test_1d_semantics () =
  let p = Lf_kernels.Ll18.program ~n:32 () in
  let reference = Interp.run p in
  let sched = Wavefront.schedule ~tile:7 ~nprocs:4 p in
  List.iter
    (fun order ->
      check bool "ll18 wavefront" true
        (Interp.equal reference (Schedule.execute ~order sched)))
    [ Schedule.Natural; Schedule.Reversed; Schedule.Interleaved ]

let test_1d_is_serial_chain () =
  (* 1-D wavefront: one tile per phase -> one busy processor *)
  let p = Lf_kernels.Ll18.program ~n:32 () in
  let sched = Wavefront.schedule ~tile:10 ~nprocs:4 p in
  check int "4 diagonals (32 fused positions, tile 10)" 4
    (Wavefront.num_phases sched);
  List.iter
    (fun ph ->
      let busy =
        Array.to_list ph |> List.filter (fun l -> l <> []) |> List.length
      in
      check int "one busy proc per phase" 1 busy)
    sched.Schedule.phases

let test_2d_diagonal_count () =
  (* 30x30 fused positions, tile 10: 3x3 tiles -> 5 diagonals *)
  let p = Lf_kernels.Jacobi.program ~n:32 () in
  let d = Derive.of_program ~depth:2 p in
  (* fused positions per dim: [1, 31] = 31 positions -> 4 tiles of 10 *)
  let sched = Wavefront.schedule ~tile:10 ~derive:d ~nprocs:2 p in
  check int "7 diagonals for 4x4 tiles" 7 (Wavefront.num_phases sched)

let test_coverage_exact () =
  let p = Lf_kernels.Jacobi.program ~n:24 () in
  let d = Derive.of_program ~depth:2 p in
  let sched = Wavefront.schedule ~tile:6 ~derive:d ~nprocs:3 p in
  List.iteri
    (fun k (n : Ir.nest) ->
      let pts = Schedule.coverage sched ~nest:k in
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (_, _, pt) ->
          if Hashtbl.mem tbl pt then Alcotest.fail "duplicate iteration";
          Hashtbl.replace tbl pt ())
        pts;
      check int "covered" (Ir.nest_iterations n) (Hashtbl.length tbl))
    p.Ir.nests

let test_more_barriers_than_peeling () =
  let p = Lf_kernels.Jacobi.program ~n:64 () in
  let d = Derive.of_program ~depth:2 p in
  let wf = Wavefront.schedule ~tile:8 ~derive:d ~nprocs:4 p in
  let sp = Schedule.fused ~strip:8 ~derive:d ~nprocs:4 p in
  check bool "wavefront has many more phases" true
    (Wavefront.num_phases wf > List.length sp.Schedule.phases * 3)

let test_simulated_peeling_beats_wavefront_1d () =
  (* in 1-D the wavefront is serial: shift-and-peel must be much
     faster on several processors *)
  let p = Lf_kernels.Calc.program ~n:96 () in
  let machine = Lf_machine.Machine.convex in
  let wf = Wavefront.schedule ~tile:16 ~nprocs:4 p in
  let sp = Schedule.fused ~strip:16 ~nprocs:4 p in
  let r_wf = Tutil.run_walked (Lf_machine.Sim.of_schedule ~machine wf) in
  let r_sp = Tutil.run_walked (Lf_machine.Sim.of_schedule ~machine sp) in
  check bool "wavefront result correct" true
    (Interp.equal (Interp.run p) (Schedule.execute wf));
  check bool "peeling at least 2x faster" true
    (r_wf.Lf_machine.Exec.cycles > 2.0 *. r_sp.Lf_machine.Exec.cycles)

let suite =
  [
    ("jacobi 2-D semantics", `Quick, test_jacobi_2d_semantics);
    ("1-D semantics", `Quick, test_1d_semantics);
    ("1-D is a serial chain", `Quick, test_1d_is_serial_chain);
    ("2-D diagonal count", `Quick, test_2d_diagonal_count);
    ("coverage exact", `Quick, test_coverage_exact);
    ("more barriers than peeling", `Quick, test_more_barriers_than_peeling);
    ("peeling beats 1-D wavefront", `Quick, test_simulated_peeling_beats_wavefront_1d);
  ]
