(* Tests for fusion clustering of mixed loop sequences. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Cluster = Lf_core.Cluster
module Schedule = Lf_core.Schedule

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* A mixed sequence: two fusable stencil nests, a non-uniform nest
   (indirect-style subscript 2i), then two more fusable nests. *)
let mixed_program () =
  let i o = Ir.av ~c:o "i" in
  let n = 64 in
  let nest nid out rhs ~parallel =
    {
      Ir.nid;
      levels = [ { Ir.lvar = "i"; lo = 2; hi = 29; parallel } ];
      body = [ Ir.stmt (Ir.aref out [ i 0 ]) rhs ];
    }
  in
  let r name o = Ir.Read (Ir.aref name [ i o ]) in
  let p =
    {
      Ir.pname = "mixed";
      decls =
        List.map (fun a -> { Ir.aname = a; extents = [ n ] })
          [ "a"; "b"; "c"; "g"; "u"; "v"; "w" ];
      nests =
        [
          nest "L1" "b" (r "a" 0) ~parallel:true;
          nest "L2" "c" (Ir.Bin (Add, r "b" 1, r "b" (-1))) ~parallel:true;
          (* non-uniform: writes g[2i] reading c *)
          {
            Ir.nid = "L3";
            levels = [ { Ir.lvar = "i"; lo = 2; hi = 29; parallel = true } ];
            body =
              [
                Ir.stmt
                  (Ir.aref "g" [ Ir.affine [ (2, "i") ] ])
                  (r "c" 0);
              ];
          };
          nest "L4" "u" (r "g" 0) ~parallel:true;
          nest "L5" "v" (Ir.Bin (Add, r "u" 1, r "u" (-1))) ~parallel:true;
        ];
    }
  in
  Ir.validate p;
  p

let test_mixed_groups () =
  let p = mixed_program () in
  let gs = Cluster.groups p in
  (* expected: [L1;L2] fused, [L3] alone, [L4;L5] fused *)
  check int "three groups" 3 (List.length gs);
  let g1 = List.nth gs 0 and g2 = List.nth gs 1 and g3 = List.nth gs 2 in
  check bool "group1 = L1,L2 fused" true
    (g1.Cluster.start = 0 && g1.Cluster.members = 2 && g1.Cluster.fused);
  check bool "group2 = L3 alone" true
    (g2.Cluster.start = 2 && g2.Cluster.members = 1 && not g2.Cluster.fused);
  check bool "group3 = L4,L5 fused" true
    (g3.Cluster.start = 3 && g3.Cluster.members = 2 && g3.Cluster.fused)

let test_mixed_schedule_semantics () =
  let p = mixed_program () in
  let gs = Cluster.groups p in
  List.iter
    (fun nprocs ->
      let sched = Cluster.schedule ~nprocs ~strip:4 p gs in
      List.iter
        (fun order ->
          let st = Schedule.execute ~order sched in
          check bool
            (Printf.sprintf "mixed semantics P=%d" nprocs)
            true
            (Interp.equal (Interp.run p) st))
        [ Schedule.Natural; Schedule.Reversed; Schedule.Interleaved ])
    [ 1; 2; 4 ]

let test_all_fusable_single_group () =
  let p = Lf_kernels.Filter.program ~rows:32 ~cols:16 () in
  let gs = Cluster.groups p in
  check int "one group" 1 (List.length gs);
  check bool "covers all and fused" true
    (let g = List.hd gs in
     g.Cluster.members = 10 && g.Cluster.fused)

let test_min_members () =
  (* a single fusable nest: not fused (no partner) *)
  let p = Tutil.chain_program ~lo:2 ~hi:20 [ [ 0 ] ] in
  let gs = Cluster.groups p in
  check bool "single nest unfused" true
    (List.length gs = 1 && not (List.hd gs).Cluster.fused)

let test_profitability_veto () =
  let p = Lf_kernels.Ll18.program ~n:24 () in
  let gs = Cluster.groups ~profitable:(fun _ -> false) p in
  check bool "legal but vetoed" true
    (List.for_all (fun g -> not g.Cluster.fused) gs);
  let gs' = Cluster.groups ~profitable:(fun _ -> true) p in
  check bool "accepted" true
    (List.exists (fun g -> g.Cluster.fused) gs')

let test_serial_nest_breaks_group () =
  let i o = Ir.av ~c:o "i" in
  let n = 48 in
  let nest nid out rhs ~parallel =
    {
      Ir.nid;
      levels = [ { Ir.lvar = "i"; lo = 1; hi = 30; parallel } ];
      body = [ Ir.stmt (Ir.aref out [ i 0 ]) rhs ];
    }
  in
  let r name o = Ir.Read (Ir.aref name [ i o ]) in
  let p =
    {
      Ir.pname = "with_serial";
      decls =
        List.map (fun a -> { Ir.aname = a; extents = [ n ] })
          [ "a"; "b"; "c"; "d" ];
      nests =
        [
          nest "L1" "b" (r "a" 0) ~parallel:true;
          (* a recurrence: not a doall *)
          nest "L2" "c" (r "c" (-1)) ~parallel:false;
          nest "L3" "d" (r "b" 1) ~parallel:true;
        ];
    }
  in
  Ir.validate p;
  let gs = Cluster.groups p in
  check int "three groups" 3 (List.length gs);
  check bool "middle unfused" true (not (List.nth gs 1).Cluster.fused);
  (* the serial nest still executes correctly (serially per block...
     it runs as one unfused phase over the whole range on one box per
     processor; a non-doall nest must occupy a single block) *)
  let sched = Cluster.schedule ~nprocs:1 ~strip:4 p gs in
  check bool "semantics" true
    (Interp.equal (Interp.run p) (Schedule.execute sched))

let test_cluster_then_simulate () =
  let p = mixed_program () in
  let gs = Cluster.groups p in
  let sched = Cluster.schedule ~nprocs:2 ~strip:8 p gs in
  ignore
    (Tutil.run_walked
       (Lf_machine.Sim.of_schedule ~machine:Lf_machine.Machine.convex sched));
  check bool "schedule semantics" true
    (Interp.equal (Interp.run p) (Schedule.execute sched))

let suite =
  [
    ("mixed sequence groups", `Quick, test_mixed_groups);
    ("mixed schedule semantics", `Quick, test_mixed_schedule_semantics);
    ("all fusable: one group", `Quick, test_all_fusable_single_group);
    ("min members", `Quick, test_min_members);
    ("profitability veto", `Quick, test_profitability_veto);
    ("serial nest breaks group", `Quick, test_serial_nest_breaks_group);
    ("cluster then simulate", `Quick, test_cluster_then_simulate);
  ]
