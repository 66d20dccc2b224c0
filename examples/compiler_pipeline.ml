(* A full "compiler pass pipeline" over a mixed loop sequence:

     distribute -> cluster -> shift-and-peel fusion -> contraction
     -> simulate

   Real programs interleave fusable stencils with loops the
   transformation cannot handle; this example shows the surrounding
   machinery that turns shift-and-peel into a usable compiler pass.

     dune exec examples/compiler_pipeline.exe *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Distribute = Lf_core.Distribute
module Cluster = Lf_core.Cluster
module Contract = Lf_core.Contract
module Legality = Lf_core.Legality
module Schedule = Lf_core.Schedule
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec

let build_program () =
  let i o = Ir.av ~c:o "i" in
  let n = 256 in
  let r name o = Ir.Read (Ir.aref name [ i o ]) in
  let nest ?(parallel = true) nid body =
    {
      Ir.nid;
      levels = [ { Ir.lvar = "i"; lo = 2; hi = n - 3; parallel } ];
      body;
    }
  in
  let p =
    {
      Ir.pname = "pipeline";
      decls =
        List.map (fun a -> { Ir.aname = a; extents = [ n ] })
          [ "inp"; "t1"; "t2"; "out1"; "g"; "u"; "v"; "out2" ];
      nests =
        [
          (* a multi-statement nest distribution will split: t1 and t2
             are independent *)
          nest "S0"
            [
              Ir.stmt (Ir.aref "t1" [ i 0 ]) (r "inp" 0);
              Ir.stmt (Ir.aref "t2" [ i 0 ])
                (Ir.Bin (Mul, r "inp" 0, Ir.Const 2.0));
            ];
          nest "S1"
            [ Ir.stmt (Ir.aref "out1" [ i 0 ])
                (Ir.Bin (Add, r "t1" 1, r "t2" (-1))) ];
          (* a non-uniform nest clustering must isolate *)
          {
            Ir.nid = "S2";
            levels = [ { Ir.lvar = "i"; lo = 2; hi = (n / 2) - 2; parallel = true } ];
            body =
              [
                Ir.stmt (Ir.aref "g" [ Ir.affine [ (2, "i") ] ]) (r "out1" 0);
              ];
          };
          nest "S3" [ Ir.stmt (Ir.aref "u" [ i 0 ]) (r "g" 0) ];
          nest "S4"
            [ Ir.stmt (Ir.aref "v" [ i 0 ])
                (Ir.Bin (Add, r "u" 1, r "u" (-1))) ];
          nest "S5" [ Ir.stmt (Ir.aref "out2" [ i 0 ]) (r "v" 0) ];
        ];
    }
  in
  Ir.validate p;
  p

let () =
  let p = build_program () in
  Fmt.pr "Input sequence (%d nests):@.@.%a@." (List.length p.Ir.nests)
    Ir.pp_program p;

  (* 1. What would plain fusion do? *)
  Fmt.pr "Plain fusion of the whole sequence: %s@.@."
    (Legality.verdict_to_string (Legality.classify p));

  (* 2. Distribute multi-statement nests into pi-blocks. *)
  let p = Distribute.distribute p in
  Fmt.pr "After distribution: %d nests (independent statements split)@."
    (List.length p.Ir.nests);

  (* 3. Cluster into maximal fusable groups. *)
  let groups = Cluster.groups p in
  Fmt.pr "@.Fusion groups:@.%a" Cluster.pp_groups groups;

  (* 4. Build and verify the clustered shift-and-peel schedule. *)
  let nprocs = 4 in
  let sched = Cluster.schedule ~nprocs ~strip:16 p groups in
  let reference = Interp.run p in
  let st = Schedule.execute ~order:Schedule.Interleaved sched in
  Fmt.pr "@.Clustered schedule on %d processors matches the reference: %b@."
    nprocs (Interp.equal reference st);

  (* 5. Simulate on the Convex model. *)
  let r =
    Exec.run_opts Exec.default_opts
      (Lf_machine.Sim.of_schedule ~machine:Machine.convex sched)
  in
  Fmt.pr "Simulated on %s: %.3e cycles, %d misses@."
    Machine.convex.Machine.mname r.Exec.cycles r.Exec.total_misses;

  (* 6. Array contraction: on a producer/consumer chain whose
        dependences are all loop-independent, direct fusion lets the
        temporaries shrink to one cell per fused iteration. *)
  let i = Ir.av "i" and j = Ir.av "j" in
  let cnest nid out src =
    {
      Ir.nid;
      levels =
        [
          { Ir.lvar = "i"; lo = 0; hi = 255; parallel = true };
          { Ir.lvar = "j"; lo = 0; hi = 255; parallel = true };
        ];
      body =
        [
          Ir.stmt (Ir.aref out [ i; j ])
            (Ir.Bin (Add, Ir.Read (Ir.aref src [ i; j ]), Ir.Const 1.0));
        ];
    }
  in
  let chain =
    {
      Ir.pname = "contractable";
      decls =
        List.map (fun a -> { Ir.aname = a; extents = [ 256; 256 ] })
          [ "x"; "tmp1"; "tmp2"; "y" ];
      nests =
        [ cnest "C1" "tmp1" "x"; cnest "C2" "tmp2" "tmp1"; cnest "C3" "y" "tmp2" ];
    }
  in
  Ir.validate chain;
  (match Contract.contract ~live_out:[ "y" ] chain with
  | Ok (q, a) ->
    Fmt.pr
      "@.Array contraction on a loop-independent chain (Warren's@.\
       motivation for fusion): contracted %s; memory %d KB -> %d KB@."
      (String.concat ", " a.Contract.contractible)
      (a.Contract.bytes_before / 1024)
      (a.Contract.bytes_after / 1024);
    let ref_chain = Interp.run chain and got = Interp.run q in
    Fmt.pr "  live-out y bit-identical: %b@."
      (Interp.find_array ref_chain "y" = Interp.find_array got "y")
  | Error m -> Fmt.pr "@.Contraction not applicable: %s@." m)
