(* Shared sweep-mix construction (see sweep.mli). *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Sim = Lf_machine.Sim

let partitioned_layout = Machine.partitioned_layout
let strip_for = Machine.strip_for

let kernels : (string * (int -> Ir.program)) list =
  [
    ("ll18", fun n -> Lf_kernels.Ll18.program ~n ());
    ("calc", fun n -> Lf_kernels.Calc.program ~n ());
    ("jacobi", fun n -> Lf_kernels.Jacobi.program ~n ());
    ("filter", fun n -> Lf_kernels.Filter.program ~rows:n ~cols:(n / 2 + 8) ());
    ( "tomcatv",
      fun n ->
        List.hd (Lf_kernels.Apps.tomcatv ~n ()).Lf_kernels.Apps.sequences );
    ( "hydro2d",
      fun n ->
        List.hd
          (Lf_kernels.Apps.hydro2d ~rows:n ~cols:(n / 2 + 8) ())
            .Lf_kernels.Apps.sequences );
  ]

let kernel_names = List.map fst kernels
let kernel name = List.assoc_opt name kernels

(* A candidate goes into the mix only if its schedule is actually
   buildable — small sizes can violate the Theorem 1 iteration-count
   threshold for some fused kernels.  Sim.legal is pure (no domains),
   so mix construction is fork-safe. *)
let mix ?(kernels = kernel_names) ?(machines = [ Machine.ksr2; Machine.convex ])
    ?(modes = [ Sim.Miss_only; Sim.Run_compressed ]) ?(nprocs = 4) ~n () =
  let progs =
    List.map
      (fun name ->
        match kernel name with
        | Some f -> f n
        | None ->
          invalid_arg
            (Printf.sprintf "Sweep.mix: unknown kernel %S (try %s)" name
               (String.concat ", " kernel_names)))
      kernels
  in
  List.concat_map
    (fun p ->
      List.concat_map
        (fun machine ->
          let layout = partitioned_layout machine p in
          let strip = strip_for machine p in
          List.concat_map
            (fun mode ->
              List.filter Sim.legal
                [
                  Sim.unfused ~layout ~mode ~machine ~nprocs p;
                  Sim.fused ~layout ~mode ~machine ~nprocs ~strip p;
                ])
            modes)
        machines)
    progs
