(* Scripted transformation pipeline: drive the lib/script combinator
   API directly (the .lft language is the same steps in text form),
   checkpoint after every step, and realize the result as a simulation
   request.

     dune exec examples/scripted_pipeline.exe

   The program is the paper's Figure 9 chain; the script is the shipped
   examples/scripts/fig9_shift_peel.lft expressed as combinators, plus
   a deliberately illegal plain fusion to show the typed error. *)

module Ir = Lf_ir.Ir
module Script = Lf_script.Script
module Realize = Lf_script.Realize
module Sim = Lf_machine.Sim
module Machine = Lf_machine.Machine
module Batch = Lf_batch.Batch

let fig9 n =
  let i o = Ir.av ~c:o "i" in
  let nest nid out rhs =
    {
      Ir.nid;
      levels = [ { Ir.lvar = "i"; lo = 1; hi = n - 2; parallel = true } ];
      body = [ Ir.stmt (Ir.aref out [ i 0 ]) rhs ];
    }
  in
  let r name o = Ir.Read (Ir.aref name [ i o ]) in
  {
    Ir.pname = "fig9";
    decls =
      List.map (fun a -> { Ir.aname = a; extents = [ n ] }) [ "a"; "b"; "c"; "d" ];
    nests =
      [
        nest "L1" "a" (r "b" 0);
        nest "L2" "c" (Ir.Bin (Ir.Add, r "a" 1, r "a" (-1)));
        nest "L3" "d" (Ir.Bin (Ir.Add, r "c" 1, r "c" (-1)));
      ];
  }

let () =
  let p = fig9 256 in

  (* Plain fusion is illegal on this chain — the classifier names the
     backward dependence that Figure 3 warns about. *)
  (match Script.run p [ Script.fuse [ "L1"; "L2"; "L3" ] ] with
  | Ok _ -> assert false
  | Error e ->
    Fmt.pr "plain fusion rejected: %s@.@." (Script.error_to_string e));

  (* The shift-and-peel script succeeds; print a checkpoint per step. *)
  let steps =
    [
      Script.shift_peel ~into:"F" [ "L1"; "L2"; "L3" ];
      Script.strip_mine 16;
      Script.partition;
    ]
  in
  Fmt.pr "script:@.%s@." (Script.script_to_string steps);
  let st =
    match
      Script.run
        ~checkpoint:(fun i step st ->
          Fmt.pr "--- after step %d (%s) ---@.%s@." i (Script.step_name step)
            (Script.checkpoint_to_string st))
        p steps
    with
    | Ok st -> st
    | Error e -> failwith (Script.error_to_string e)
  in

  (* Realize as the canonical simulation request and run it through the
     batch layer (persistent store, engine tiers, domains). *)
  let req = Realize.request ~machine:Machine.convex ~nprocs:4 st in
  assert (Sim.legal req);
  let r = Batch.run_one_with Lf_batch.Run_opts.default req in
  Fmt.pr "simulated on %s: %.4e cycles, %d misses@."
    Machine.convex.Machine.mname r.Lf_machine.Exec.cycles
    r.Lf_machine.Exec.total_misses
