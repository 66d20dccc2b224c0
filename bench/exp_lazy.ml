(* BENCH_9 ("lazy"): the runtime lazy-array frontend — fused DAG
   blocks versus op-at-a-time execution of the same recorded traces.

   Each builtin whole-array trace (lib/lazy/trace.ml) is recorded and
   planned twice: fused (maximal legal blocks under shift-and-peel)
   and with fusion off (one block per op, the baseline a NumPy-style
   eager library pays).  Both plans are first proven bit-identical to
   eager per-op interpretation, then

     (a) simulated on the Convex model through the batch layer —
         per-block requests, so store hits/dedup apply — comparing
         total cycles and cache misses, and
     (b) executed natively: every block verified against the
         reference interpreter on real domains, then timed, summing
         min-of-k wall clock across blocks.

   The "mismatch" trace is the block-size-mismatch scenario from
   Kristensen et al.'s runtime fusion work: halfway through, the
   pipeline switches to an array of a different shape, which breaks
   fusion at exactly that op — the plan splits into two blocks and the
   bench shows the locality benefit shrinking accordingly. *)

module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Batch = Lf_batch.Batch
module Native = Lf_native.Native
module Bench_timer = Lf_native.Bench_timer
module Plan = Lf_lazy.Plan
module Eval = Lf_lazy.Eval
module Trace = Lf_lazy.Trace

let nprocs = 4
let strip = 16

let policy cfg =
  if cfg.Util.quick then
    { Bench_timer.default_policy with warmup = 1; repetitions = 3 }
  else Bench_timer.default_policy

let traces cfg =
  let n1 = Util.scale cfg 512 64 in
  let n2 = Util.scale cfg 96 24 in
  List.map
    (fun (name, _desc) ->
      let text = Option.get (Trace.builtin_text name) in
      ((name, text), if name = "blur2" then n2 else n1))
    Trace.builtins

let envs_bit_identical (a : Eval.env) (b : Eval.env) =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc ->
         acc
         &&
         match Hashtbl.find_opt b k with
         | Some v' ->
           Array.length v = Array.length v'
           && Array.for_all2
                (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                v v'
         | None -> false)
       a true

let sim_totals plan =
  let outcomes, _ =
    Eval.simulate ~opts:!Util.opts ~machine:Machine.convex plan
  in
  Array.fold_left
    (fun (cy, ms) (o : Batch.outcome) ->
      match o.Batch.result with
      | Ok r -> (cy +. r.Exec.cycles, ms + r.Exec.total_misses)
      | Error (Batch.Timed_out s) ->
        failwith (Printf.sprintf "block request timed out after %.1fs" s)
      | Error (Batch.Crashed m) -> failwith m)
    (0.0, 0) outcomes

(* native: step the blocks, verifying each against the reference
   interpreter before timing it (measured times are value-independent,
   so the env only feeds verification and the next block's inputs) *)
let native_wall pol (plan : Plan.t) =
  let env = Eval.env_create () in
  List.fold_left
    (fun wall (b : Plan.block) ->
      (match Native.verify ~init:(Eval.init_of env) b.Plan.b_sched with
      | Ok () -> ()
      | Error m ->
        failwith
          (Printf.sprintf "block %d not bit-identical natively: %s"
             b.Plan.b_index m));
      let t = Native.measure ~policy:pol b.Plan.b_sched in
      Eval.advance env b;
      wall +. t.Native.t_measure.Bench_timer.min_s)
    0.0 plan.Plan.blocks

let splits (plan : Plan.t) =
  String.concat "; "
    (List.filter_map
       (fun (b : Plan.block) ->
         Option.map (fun r -> Fmt.str "%a" Plan.pp_reason r) b.Plan.b_reason)
       plan.Plan.blocks)

let run cfg =
  Util.header
    "BENCH_9: lazy-array frontend — fused DAG blocks vs op-at-a-time \
     execution of recorded whole-array traces";
  let pol = policy cfg in
  Util.pr
    "traces: %s; %d procs, strip %d; sim on Convex, native min-of-k \
     (%d reps)@."
    (String.concat ", " (List.map fst Trace.builtins))
    nprocs strip pol.Bench_timer.repetitions;
  Util.pr "%10s %6s %5s %7s  %12s %12s  %9s %9s  %9s@." "trace" "n" "ops"
    "blocks" "cycles-fused" "cycles-op" "miss-fus" "miss-op" "wall-gain";
  List.iter
    (fun ((name, text), n) ->
      let cx, _outs =
        match Trace.of_string ~n text with
        | Ok r -> r
        | Error m -> failwith (name ^ ": " ^ m)
      in
      let fused = Lf_lazy.Ctx.plan ~nprocs ~strip cx in
      let op_at_a_time = Lf_lazy.Ctx.plan ~fuse:false ~nprocs ~strip cx in
      (* correctness first: both strategies bit-identical to eager *)
      let reference = Eval.eager fused in
      if not (envs_bit_identical reference (Eval.materialise fused)) then
        failwith (name ^ ": fused plan diverged from eager evaluation");
      if not (envs_bit_identical reference (Eval.materialise op_at_a_time))
      then failwith (name ^ ": op-at-a-time plan diverged from eager");
      let fcy, fms = sim_totals fused in
      let ucy, ums = sim_totals op_at_a_time in
      let fwall = native_wall pol fused in
      let uwall = native_wall pol op_at_a_time in
      let nblocks = List.length fused.Plan.blocks in
      Util.pr "%10s %6d %5d %7d  %12.4e %12.4e  %9d %9d  %8.2fx@." name n
        (Plan.ops fused) nblocks fcy ucy fms ums (uwall /. fwall);
      (match splits fused with
      | "" -> ()
      | s -> Util.pr "           fusion split: %s@." s);
      Util.note ~id:"lazy"
        [
          ("trace", Util.Str name);
          ("n", Util.Int n);
          ("ops", Util.Int (Plan.ops fused));
          ("blocks_fused", Util.Int nblocks);
          ("blocks_op_at_a_time", Util.Int (List.length op_at_a_time.Plan.blocks));
          ("splits", Util.Str (splits fused));
          ("fused_cycles", Util.Float fcy);
          ("op_cycles", Util.Float ucy);
          ("fused_misses", Util.Int fms);
          ("op_misses", Util.Int ums);
          ("fused_wall_s", Util.Float fwall);
          ("op_wall_s", Util.Float uwall);
          ("miss_ratio", Util.Float (float_of_int ums /. float_of_int fms));
          ("bit_identical", Util.Bool true);
        ])
    (traces cfg)
