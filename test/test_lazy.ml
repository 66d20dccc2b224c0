(* The lazy-array frontend (lib/lazy).

   Pillars:

   1. Bit-identity: forcing a lazily recorded DAG -- fused blocks
      through Schedule.execute -- agrees bit-for-bit with eager
      op-at-a-time interpretation, over the built-in trace workloads
      and random DAGs, with fusion on and off.

   2. Observable identity across pure engines: each block request
      replayed at Miss_only and Run_compressed produces identical
      counters.

   3. Partition determinism: the plan (and its signature) is a
      function of the DAG, not of the recording order -- commuting
      chains recorded sequentially and interleaved plan identically.

   4. Typed split reasons: shape mismatches, Theorem 1 violations and
      inter-block dependence cycles split blocks with the matching
      Plan.reason; zip over mismatched shapes is a recording error. *)

module Machine = Lf_machine.Machine
module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec
module Node = Lf_lazy.Node
module Plan = Lf_lazy.Plan
module Eval = Lf_lazy.Eval
module Arr = Lf_lazy.Arr
module Ctx = Lf_lazy.Ctx
module Trace = Lf_lazy.Trace

open QCheck

let fbits = Int64.bits_of_float

let arrays_bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> fbits x = fbits y) a b

let env_bit_equal (e1 : Eval.env) (e2 : Eval.env) =
  Hashtbl.length e1 = Hashtbl.length e2
  && Hashtbl.fold
       (fun k v acc ->
         acc
         &&
         match Hashtbl.find_opt e2 k with
         | Some v' -> arrays_bit_equal v v'
         | None -> false)
       e1 true

let trace_ctx ?(n = 64) name =
  match Trace.of_string ~n (Option.get (Trace.builtin_text name)) with
  | Ok (cx, outs) -> (cx, outs)
  | Error m -> Alcotest.failf "builtin %s: %s" name m

(* ------------------------------------------------------------------ *)
(* 1. Bit-identity on the built-in workloads *)

let check_bit_identity name =
  let cx, outs = trace_ctx name in
  let fused = Ctx.plan cx in
  let opat = Ctx.plan ~fuse:false cx in
  let reference = Eval.eager fused in
  let m_fused = Eval.materialise fused in
  let m_opat = Eval.materialise opat in
  Alcotest.(check bool)
    (name ^ ": fused == eager") true
    (env_bit_equal reference m_fused);
  Alcotest.(check bool)
    (name ^ ": op-at-a-time == eager") true
    (env_bit_equal reference m_opat);
  (* forcing an output yields the same bytes under both strategies *)
  List.iter
    (fun (oname, v) ->
      Alcotest.(check bool)
        (name ^ ": force " ^ oname)
        true
        (arrays_bit_equal (Arr.force v) (Arr.force ~fuse:false v)))
    outs

let test_bit_identity () =
  List.iter (fun (name, _) -> check_bit_identity name) Trace.builtins

(* 2. Counters identical across the two pure replay engines *)

let test_engine_observables () =
  let cx, _ = trace_ctx "heat" in
  let plan = Ctx.plan cx in
  let req_of mode = Plan.requests ~machine:Machine.convex ~mode plan in
  List.iter2
    (fun r1 r2 ->
      let a = Exec.run_opts Exec.default_opts r1
      and b = Exec.run_opts Exec.default_opts r2 in
      Alcotest.(check bool)
        "cycles equal" true
        (fbits a.Exec.cycles = fbits b.Exec.cycles);
      Alcotest.(check int) "misses equal" a.Exec.total_misses
        b.Exec.total_misses;
      Alcotest.(check int) "refs equal" a.Exec.total_refs b.Exec.total_refs)
    (req_of Sim.Miss_only)
    (req_of Sim.Run_compressed)

(* ------------------------------------------------------------------ *)
(* Random DAGs *)

(* A recipe is replayable into any ctx: a list of abstract steps over
   a growing pool of values.  Two sources of distinct shapes seed the
   pool, so random DAGs exercise shape splits too. *)
type step =
  | SMap of int * int * int  (* unop pick, operand pick, shift *)
  | SZip of int * int * int * int * int  (* binop, op1, shift1, op2, shift2 *)

let replay_recipe ?(sources = [ ("a", 48); ("b", 24) ]) steps =
  let cx = Ctx.create () in
  let pool = ref [] in
  List.iter
    (fun (nm, n) -> pool := Arr.source cx nm [| n |] :: !pool)
    sources;
  let pick k = List.nth !pool (k mod List.length !pool) in
  let unop_of = function
    | 0 -> Node.Id
    | 1 -> Node.Neg
    | 2 -> Node.Scale 1.5
    | _ -> Node.Bias 0.25
  in
  let binop_of = function
    | 0 -> Lf_ir.Ir.Add
    | 1 -> Lf_ir.Ir.Sub
    | _ -> Lf_ir.Ir.Mul
  in
  List.iter
    (fun st ->
      let v =
        match st with
        | SMap (u, o, s) ->
            Node.map (unop_of u) (Arr.shift1 (s mod 3) (pick o))
        | SZip (b, o1, s1, o2, s2) ->
            let x = Arr.shift1 (s1 mod 3) (pick o1) in
            let y = pick o2 in
            let y =
              if Arr.shape x = Arr.shape y then Arr.shift1 (s2 mod 3) y
              else Arr.shift1 (s2 mod 3) x (* keep shapes compatible *)
            in
            Node.zip (binop_of b) x y
      in
      pool := v :: !pool)
    steps;
  (cx, !pool)

let step_gen =
  Gen.(
    oneof
      [
        map3 (fun u o s -> SMap (u, o, s)) (int_bound 3) (int_bound 7)
          (int_range (-2) 2);
        (fun st ->
          SZip
            ( int_bound 2 st,
              int_bound 7 st,
              int_range (-2) 2 st,
              int_bound 7 st,
              int_range (-2) 2 st ));
      ])

let recipe_arb = make Gen.(list_size (int_range 1 10) step_gen)

let prop_random_dag_bit_identity =
  Test.make ~count:60 ~name:"lazy: random DAG fused == op-at-a-time == eager"
    recipe_arb (fun steps ->
      let cx, _pool = replay_recipe steps in
      let fused = Ctx.plan cx in
      let reference = Eval.eager fused in
      env_bit_equal reference (Eval.materialise fused)
      && env_bit_equal reference
           (Eval.materialise (Ctx.plan ~fuse:false cx)))

let prop_partition_order_independent =
  (* two independent commuting chains recorded sequentially vs
     interleaved must produce identical plans *)
  Test.make ~count:40 ~name:"lazy: partition independent of recording order"
    (make Gen.(pair (int_range 1 5) (int_range 1 5)))
    (fun (k1, k2) ->
      let build interleaved =
        let cx = Ctx.create () in
        let a = Arr.source cx "a" [| 40 |] in
        let b = Arr.source cx "b" [| 40 |] in
        let step v i =
          Node.map (Node.Scale (1.0 +. float_of_int i)) (Arr.shift1 1 v)
        in
        if interleaved then begin
          let va = ref a and vb = ref b in
          for i = 0 to max k1 k2 - 1 do
            if i < k1 then va := step !va i;
            if i < k2 then vb := step !vb i
          done
        end
        else begin
          let va = ref a in
          for i = 0 to k1 - 1 do
            va := step !va i
          done;
          let vb = ref b in
          for i = 0 to k2 - 1 do
            vb := step !vb i
          done
        end;
        Ctx.plan cx
      in
      let p1 = build false and p2 = build true in
      Plan.signature p1 = Plan.signature p2)

(* ------------------------------------------------------------------ *)
(* 4. Typed split reasons *)

let has_reason pred plan =
  List.exists
    (fun (b : Plan.block) ->
      (match b.Plan.b_reason with Some r -> pred r | None -> false)
      || List.exists (fun (_, r) -> pred r) b.Plan.b_blocked)
    plan.Plan.blocks

let test_shape_mismatch_splits () =
  let cx, _ = trace_ctx "mismatch" in
  let plan = Ctx.plan cx in
  Alcotest.(check bool)
    "more than one block" true
    (List.length plan.Plan.blocks > 1);
  Alcotest.(check bool)
    "a Shape_mismatch reason is recorded" true
    (has_reason
       (function Plan.Shape_mismatch _ -> true | _ -> false)
       plan)

let test_threshold_splits () =
  (* shift of 4 over n=12 with 4 procs: per-proc blocks of 3 < the
     dependence distance, so Theorem 1 refuses the fusion *)
  let cx = Ctx.create () in
  let a = Arr.source cx "a" [| 12 |] in
  let b = Arr.copy a in
  let c = Arr.add (Arr.shift1 (-4) b) (Arr.shift1 4 b) in
  ignore c;
  let plan = Ctx.plan ~nprocs:4 cx in
  Alcotest.(check bool)
    "threshold violation splits" true
    (List.length plan.Plan.blocks > 1);
  Alcotest.(check bool)
    "an Illegal_fusion reason is recorded" true
    (has_reason
       (function Plan.Illegal_fusion _ -> true | _ -> false)
       plan);
  (* values still agree after the split *)
  Alcotest.(check bool)
    "split plan still bit-identical" true
    (env_bit_equal (Eval.eager plan) (Eval.materialise plan))

let test_would_cycle_reason () =
  (* A in block0; B (huge stencil) cannot fuse with block0; C consumes
     B but matches block0's shape -- joining block0 would order C
     before its producer: the refusal must be typed Would_cycle. *)
  let cx = Ctx.create () in
  let a = Arr.source cx "a" [| 12 |] in
  let b = Arr.copy a in
  let c = Arr.add (Arr.shift1 (-4) b) (Arr.shift1 4 b) in
  let d = Arr.add (Arr.shift1 (-4) c) (Arr.shift1 4 c) in
  ignore d;
  let plan = Ctx.plan ~nprocs:4 cx in
  Alcotest.(check bool)
    "a Would_cycle refusal is recorded" true
    (has_reason (function Plan.Would_cycle _ -> true | _ -> false) plan);
  Alcotest.(check bool)
    "cycle-split plan still bit-identical" true
    (env_bit_equal (Eval.eager plan) (Eval.materialise plan))

let test_zip_shape_error () =
  let cx = Ctx.create () in
  let a = Arr.source cx "a" [| 16 |] in
  let b = Arr.source cx "b" [| 8 |] in
  Alcotest.check_raises "zip shape mismatch raises"
    (Node.Error "lazy: zip shape mismatch 16 vs 8") (fun () ->
      ignore (Arr.add a b))

let test_fusion_off_reason () =
  let cx, _ = trace_ctx "heat" in
  let plan = Ctx.plan ~fuse:false cx in
  Alcotest.(check int)
    "one block per op" (Ctx.ops cx)
    (List.length plan.Plan.blocks);
  Alcotest.(check bool)
    "Fusion_off recorded" true
    (has_reason (function Plan.Fusion_off -> true | _ -> false) plan)

(* ------------------------------------------------------------------ *)
(* Structure of the built-in workloads *)

let test_builtin_structure () =
  let block_count name n =
    let cx, _ = trace_ctx ~n name in
    List.length (Ctx.plan cx).Plan.blocks
  in
  Alcotest.(check int) "heat fuses to one block" 1 (block_count "heat" 64);
  Alcotest.(check int) "pipeline fuses to one block" 1
    (block_count "pipeline" 64);
  Alcotest.(check int) "blur2 fuses to one block" 1 (block_count "blur2" 24);
  Alcotest.(check bool)
    "mismatch splits" true
    (block_count "mismatch" 64 > 1);
  (* a fused multi-op block really is shift-and-peel *)
  let cx, _ = trace_ctx "heat" in
  let plan = Ctx.plan cx in
  List.iter
    (fun (b : Plan.block) ->
      Alcotest.(check bool) "multi-op block fused" true b.Plan.b_fused)
    (List.filter
       (fun (b : Plan.block) -> List.length b.Plan.b_nodes > 1)
       plan.Plan.blocks)

let test_shift_is_free () =
  let cx = Ctx.create () in
  let a = Arr.source cx "a" [| 32 |] in
  let _ = Arr.shift1 1 (Arr.shift1 2 a) in
  Alcotest.(check int) "shift records no op" 0 (Ctx.ops cx);
  let v = Arr.shift1 1 (Arr.shift1 2 a) in
  Alcotest.(check bool)
    "offsets compose" true
    (v.Node.v_off = [| 3 |])

let test_sum_and_cache () =
  let _cx, outs = trace_ctx "heat" in
  let _, v = List.hd outs in
  let s1 = Arr.sum v in
  let s2 = Arr.sum v in
  Alcotest.(check bool) "sum deterministic" true (fbits s1 = fbits s2);
  (* the cached environment answers a repeated force *)
  let f1 = Arr.force v and f2 = Arr.force v in
  Alcotest.(check bool) "repeated force identical" true
    (arrays_bit_equal f1 f2)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_random_dag_bit_identity; prop_partition_order_independent ]

let suite =
  [
    Alcotest.test_case "bit-identity: builtins, fusion on/off vs eager" `Slow
      test_bit_identity;
    Alcotest.test_case "engine observables identical" `Quick
      test_engine_observables;
    Alcotest.test_case "shape mismatch splits blocks" `Quick
      test_shape_mismatch_splits;
    Alcotest.test_case "threshold violation splits blocks" `Quick
      test_threshold_splits;
    Alcotest.test_case "inter-block cycle refusal typed" `Quick
      test_would_cycle_reason;
    Alcotest.test_case "zip shape mismatch raises" `Quick
      test_zip_shape_error;
    Alcotest.test_case "fusion off: one block per op" `Quick
      test_fusion_off_reason;
    Alcotest.test_case "builtin workloads partition as documented" `Quick
      test_builtin_structure;
    Alcotest.test_case "shift is a free view" `Quick test_shift_is_free;
    Alcotest.test_case "sum reduction and env cache" `Quick
      test_sum_and_cache;
  ]
  @ qsuite
