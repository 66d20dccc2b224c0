(* Figures 22, 23 and 24: kernel speedups and misses, fused versus
   unfused, on the two simulated machines, and the data-size study. *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec

let kernel_by_name cfg name =
  match name with
  | "LL18" -> fun n -> Lf_kernels.Ll18.program ~n ()
  | "calc" -> fun n -> Lf_kernels.Calc.program ~n ()
  | _ -> invalid_arg "kernel_by_name"
  [@@warning "-27"]

(* Speedup/miss sweep for one kernel on one machine; speedups relative
   to the unfused version on one processor (cache-partitioned layout
   throughout, as in the paper's methodology). *)
let sweep ?note ~machine ~procs (p : Ir.program) =
  let layout = Util.partitioned_layout machine p in
  let strip = Util.strip_for machine p in
  (* only cycles and miss counts are read below, so the run-compressed
     address-stream engine (bit-identical observables) does the work;
     the whole sweep is one Batch.run_with request list, answered from a
     warm result store without simulating *)
  let mode = Lf_machine.Sim.Run_compressed in
  let requests =
    Lf_machine.Sim.unfused ~mode ~layout ~machine ~nprocs:1 p
    :: List.concat_map
         (fun nprocs ->
           [
             Lf_machine.Sim.unfused ~mode ~layout ~machine ~nprocs p;
             Lf_machine.Sim.fused ~mode ~layout ~machine ~nprocs ~strip p;
           ])
         procs
  in
  let results = Util.run_requests requests in
  let base = results.(0).Exec.cycles in
  let rows =
    List.mapi
      (fun i nprocs -> (nprocs, results.((2 * i) + 1), results.((2 * i) + 2)))
      procs
  in
  (match note with
  | None -> ()
  | Some id ->
    List.iter
      (fun (nprocs, (u : Exec.result), (f : Exec.result)) ->
        Util.note ~id
          [
            ("nprocs", Util.Int nprocs);
            ("unfused_cycles", Util.Float u.Exec.cycles);
            ("fused_cycles", Util.Float f.Exec.cycles);
            ("unfused_misses", Util.Int u.Exec.total_misses);
            ("fused_misses", Util.Int f.Exec.total_misses);
          ])
      rows);
  Util.pr "%6s  %14s  %14s  %12s  %12s  %8s@." "P" "speedup-unfused"
    "speedup-fused" "miss-unfused" "miss-fused" "gain";
  List.iter
    (fun (nprocs, u, f) ->
      Util.pr "%6d  %14.2f  %14.2f  %12d  %12d  %+7.1f%%@." nprocs
        (base /. u.Exec.cycles) (base /. f.Exec.cycles) u.Exec.total_misses
        f.Exec.total_misses
        (100.0 *. ((u.Exec.cycles /. f.Exec.cycles) -. 1.0)))
    rows

let fig22 cfg =
  Util.header "Figure 22: speedup and misses of kernels on KSR2 (512x512)";
  let n = Util.scale cfg 512 128 in
  let procs =
    Util.cap_procs cfg
      (Util.scale cfg [ 1; 2; 4; 8; 16; 24; 32; 40; 48; 56 ] [ 1; 2; 4; 8 ])
  in
  Util.subheader "(a) LL18";
  sweep ~note:"f22.ll18" ~machine:Machine.ksr2 ~procs
    (Lf_kernels.Ll18.program ~n ());
  Util.subheader "(b) calc";
  sweep ~note:"f22.calc" ~machine:Machine.ksr2 ~procs
    (Lf_kernels.Calc.program ~n ());
  Util.pr
    "@.Expected shape: fusion wins by ~5-25%% at low P; the benefit@.\
     diminishes as each processor's share of the data begins to fit in@.\
     its cache, and calc (6 arrays) crosses over before LL18 (9 arrays).@."

let fig23 cfg =
  Util.header "Figure 23: speedup and misses of kernels on Convex";
  let n = Util.scale cfg 1024 128 in
  let procs =
    Util.cap_procs cfg (Util.scale cfg [ 1; 2; 4; 8; 12; 16 ] [ 1; 2; 4; 8 ])
  in
  Util.subheader "(a) LL18 (1024x1024)";
  sweep ~note:"f23.ll18" ~machine:Machine.convex ~procs
    (Lf_kernels.Ll18.program ~n ());
  Util.subheader "(b) calc (1024x1024)";
  sweep ~note:"f23.calc" ~machine:Machine.convex ~procs
    (Lf_kernels.Calc.program ~n ());
  Util.subheader "(c) filter (1602x640)";
  let rows = Util.scale cfg 1602 160 and cols = Util.scale cfg 640 64 in
  sweep ~note:"f23.filter" ~machine:Machine.convex ~procs
    (Lf_kernels.Filter.program ~rows ~cols ());
  Util.pr
    "@.Expected shape: >=30%% improvement for LL18 and calc and more@.\
     for filter (the Convex's higher miss penalty), no crossover by 16.@."

(* Figure 24: improvement from fusion (ratio of unfused to fused
   execution time) as a function of array size, at 8 and 16 procs. *)
let fig24 cfg =
  Util.header "Figure 24: improvement from fusion vs array size (Convex)";
  let sizes = Util.scale cfg [ 256; 512; 1024 ] [ 64; 128; 256 ] in
  let procs = Util.cap_procs cfg (Util.scale cfg [ 8; 16 ] [ 2; 4 ]) in
  List.iter
    (fun nprocs ->
      Util.subheader (Printf.sprintf "%d processors" nprocs);
      Util.pr "%10s  %16s  %16s@." "size" "LL18 (9 arrays)" "calc (6 arrays)";
      List.iter
        (fun n ->
          let ratio p =
            let pair =
              Util.run_pair ~mode:Exec.Run_compressed ~machine:Machine.convex
                ~nprocs p
            in
            pair.Util.unfused.Exec.cycles /. pair.Util.fused.Exec.cycles
          in
          let r_ll18 = ratio (Lf_kernels.Ll18.program ~n ()) in
          let r_calc = ratio (Lf_kernels.Calc.program ~n ()) in
          Util.pr "%7dx%-4d %16.2f  %16.2f@." n n r_ll18 r_calc)
        sizes)
    procs;
  Util.pr
    "@.Expected shape: ratios above 1 only when the per-processor data@.\
     exceeds the aggregate cache; calc (6 arrays) drops below 1 at@.\
     smaller sizes / more processors than LL18 (9 arrays).@."
