(* Multidimensional shift-and-peel on the Jacobi pair (paper Figures 15
   and 16), plus a real parallel run of the fused schedule on OCaml 5
   domains.  Exits nonzero if either execution differs from the
   reference interpreter.

     dune exec examples/jacobi_fusion.exe *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Derive = Lf_core.Derive
module Schedule = Lf_core.Schedule
module Codegen = Lf_core.Codegen
module Pool = Lf_parallel.Pool
module Native = Lf_native.Native
module Bench_timer = Lf_native.Bench_timer

let () =
  let n = 128 in
  let p = Lf_kernels.Jacobi.program ~n () in
  Fmt.pr "Jacobi relaxation pair (Figure 15):@.@.%a@." Ir.pp_program p;

  (* Fuse BOTH parallel dimensions: the copy-back nest needs a shift of
     one and a peel of one in each dimension. *)
  let d = Derive.of_program ~depth:2 p in
  Fmt.pr "Derived amounts (both dimensions):@.%a@." Derive.pp d;

  Fmt.pr "Generated code with the boundary-case prologue (Figure 16):@.@.%s@."
    (Codegen.multidim_to_string ~strip:32 p d);

  (* Execute on a 3x2 processor grid and verify. *)
  let sched = Schedule.fused ~grid:[| 3; 2 |] ~nprocs:6 ~strip:16 ~derive:d p in
  let st = Schedule.execute ~order:Schedule.Reversed sched in
  let grid_ok = Interp.equal (Interp.run p) st in
  Fmt.pr "2-D fused execution on a 3x2 grid matches the reference: %b@.@."
    grid_ok;

  (* Native domains runtime: the same fused schedule shape lowered to
     real loops, one domain per processor, one barrier before the
     peeled iterations. *)
  let workers = min 4 (Domain.recommended_domain_count ()) in
  let native = Schedule.fused ~nprocs:workers ~strip:32 ~derive:d p in
  let native_ok =
    Pool.with_pool workers (fun pool ->
        match Native.verify ~pool native with
        | Error m ->
          Fmt.pr "Native fused schedule on %d domain(s) is NOT bit-identical \
                  to the reference interpreter: %s@." workers m;
          false
        | Ok () ->
          let t = Native.measure ~pool native in
          Fmt.pr
            "Native fused schedule on %d domain(s): %.2f ms, bit-identical \
             to the reference interpreter: true@."
            workers (1000.0 *. t.Native.t_measure.Bench_timer.min_s);
          true)
  in
  if not (grid_ok && native_ok) then exit 1
