(* Integration tests: the whole pipeline (analysis -> derivation ->
   fusion -> layout -> simulation) on the paper's kernels, checking the
   paper's qualitative claims end-to-end at reduced sizes. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Derive = Lf_core.Derive
module Partition = Lf_core.Partition
module Alignrep = Lf_core.Alignrep
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim

let check = Alcotest.check
let bool = Alcotest.bool

let partitioned m (p : Ir.program) =
  Partition.cache_partitioned
    ~cache:{
      Partition.capacity = m.Machine.cache.Lf_cache.Cache.capacity;
      line = m.Machine.cache.Lf_cache.Cache.line;
      assoc = m.Machine.cache.Lf_cache.Cache.assoc;
    }
    p.Ir.decls

(* Whole pipeline: every kernel, simulated fused on 4 processors,
   walks a schedule that equals the reference interpreter, and beats
   the unfused version in misses when the data exceeds the caches. *)
let test_pipeline_kernels () =
  let machine = Machine.ksr2 in
  List.iter
    (fun (p, strip) ->
      let layout = partitioned machine p in
      let req = Sim.fused ~layout ~machine ~nprocs:4 ~strip p in
      let f = Tutil.run_walked req in
      check bool
        (p.Ir.pname ^ " semantics")
        true
        (Interp.equal (Interp.run p) (Schedule.execute (Sim.schedule_of req)));
      let u =
        Exec.run_opts Exec.default_opts
          (Sim.unfused ~layout ~machine ~nprocs:4 p)
      in
      check bool
        (p.Ir.pname ^ " fewer misses")
        true
        (f.Exec.total_misses < u.Exec.total_misses))
    [
      (Lf_kernels.Ll18.program ~n:128 (), 6);
      (Lf_kernels.Calc.program ~n:256 (), 10);
      (Lf_kernels.Filter.program ~rows:256 ~cols:128 (), 5);
    ]

(* Figure 22's crossover claim: with few processors fusion wins; when
   each processor's share fits in cache, the unfused version catches
   up.  128x128 x 9 arrays = 1.1 MB; KSR2 caches are 256 KB. *)
let test_crossover_exists () =
  let machine = Machine.ksr2 in
  let p = Lf_kernels.Calc.program ~n:128 () in
  let layout = partitioned machine p in
  let gain nprocs =
    let u =
      Exec.run_opts Exec.default_opts (Sim.unfused ~layout ~machine ~nprocs p)
    in
    let f =
      Exec.run_opts Exec.default_opts
        (Sim.fused ~layout ~machine ~nprocs ~strip:10 p)
    in
    u.Exec.cycles /. f.Exec.cycles
  in
  let g1 = gain 1 and g8 = gain 8 in
  check bool "fusion wins on 1 proc" true (g1 > 1.02);
  check bool "benefit shrinks with procs" true (g8 < g1)

(* Figure 20's claim: cache partitioning minimises misses compared to
   pad-0 placement for the fused loop. *)
let test_partitioning_minimises () =
  let machine = Machine.convex in
  let p = Lf_kernels.Ll18.program ~n:128 () in
  let strip = 8 in
  let miss layout =
    (Exec.run_opts Exec.default_opts
       (Sim.fused ~layout ~machine ~nprocs:4 ~strip p)).Exec.total_misses
  in
  let part = miss (partitioned machine p) in
  check bool "beats pad 0" true (part < miss (Partition.padded ~pad:0 p.Ir.decls));
  (* and is no worse than a small sample of paddings *)
  List.iter
    (fun pad ->
      check bool
        (Printf.sprintf "<= pad %d" pad)
        true
        (part <= miss (Partition.padded ~pad p.Ir.decls)))
    [ 1; 2; 5 ]

(* Figure 26's claim: shift-and-peel beats alignment+replication. *)
let test_peeling_beats_alignrep () =
  let machine = Machine.convex in
  let p = Lf_kernels.Ll18.program ~n:96 () in
  match Alignrep.transform p with
  | Error m -> Alcotest.fail m
  | Ok r ->
    let f =
      Tutil.run_walked
        (Sim.fused ~layout:(partitioned machine p) ~machine ~nprocs:4
           ~strip:8 p)
    in
    let sched = Alignrep.schedule ~nprocs:4 ~strip:8 r in
    let a =
      Tutil.run_walked
        (Sim.of_schedule ~layout:(partitioned machine r.Alignrep.prog)
           ~machine sched)
    in
    let reference = Interp.run p and replicated = Schedule.execute sched in
    check bool "alignrep result correct" true
      (List.for_all
         (fun (d : Ir.decl) ->
           Interp.find_array reference d.Ir.aname
           = Interp.find_array replicated d.Ir.aname)
         p.Ir.decls);
    check bool "peeling faster" true (f.Exec.cycles < a.Exec.cycles)

(* Strip-mined fusion at the partition-derived strip size is at least
   as good as a far-too-large strip (the paper's strip-size rule). *)
let test_strip_size_rule () =
  let machine = Machine.convex in
  let p = Lf_kernels.Ll18.program ~n:256 () in
  let layout = partitioned machine p in
  let miss strip =
    (Exec.run_opts Exec.default_opts
       (Sim.fused ~layout ~machine ~nprocs:2 ~strip p)).Exec.total_misses
  in
  let narrays = List.length p.Ir.decls in
  let good =
    Partition.max_strip
      ~cache:{ Partition.capacity = 1024 * 1024; line = 64; assoc = 1 }
      ~narrays ~row_elems:256 ~rows_per_iter:1 ()
  in
  check bool "partition-sized strip no worse" true
    (miss (max 2 (good - 2)) <= miss 200)

(* The emitted code and the executable schedule agree on the worked
   example: execute the Figure 12 semantics via the schedule and check
   the tails are placed where the figure says. *)
let test_schedule_matches_figure12 () =
  let p = Tutil.chain_program ~lo:2 ~hi:41 [ [ 0 ]; [ 1; -1 ]; [ 1; -1 ] ] in
  let d = Derive.of_program ~depth:1 p in
  let sched = Schedule.fused ~nprocs:2 ~strip:8 ~derive:d p in
  (* fused positions [2, 43]; block 0 covers [2, 22] (iend = 22).  Per
     Figure 12 its peeled phase covers c (shift 1, peel 1) over
     [iend, iend+1] = [22, 23] and d (shift 2, peel 2) over
     [iend-1, iend+2] = [21, 24]. *)
  let peeled = List.nth sched.Schedule.phases 1 in
  let boxes = peeled.(0) in
  let range_of nest =
    List.filter_map
      (fun (b : Schedule.box) ->
        if b.Schedule.nest = nest then Some b.Schedule.ranges.(0) else None)
      boxes
  in
  check bool "c tail [22,23]" true (range_of 1 = [ (22, 23) ]);
  check bool "d tail [21,24]" true (range_of 2 = [ (21, 24) ])

(* Unfused vs fused barrier accounting matches the paper's claim that
   fusion eliminates the synchronization between nests. *)
let test_fusion_saves_barriers () =
  let p = Lf_kernels.Filter.program ~rows:48 ~cols:16 () in
  let m = Machine.ksr2 in
  let u =
    Exec.run_opts Exec.default_opts (Sim.unfused ~machine:m ~nprocs:4 p)
  in
  let f =
    Exec.run_opts Exec.default_opts (Sim.fused ~machine:m ~nprocs:4 ~strip:8 p)
  in
  (* 10 nests: 9 barriers unfused vs 1 fused *)
  check bool "9x barrier cost vs 1x" true
    (u.Exec.barrier_cycles = 9.0 *. f.Exec.barrier_cycles)

let suite =
  [
    ("pipeline on kernels", `Slow, test_pipeline_kernels);
    ("crossover exists", `Slow, test_crossover_exists);
    ("partitioning minimises misses", `Slow, test_partitioning_minimises);
    ("peeling beats align/replicate", `Slow, test_peeling_beats_alignrep);
    ("strip size rule", `Slow, test_strip_size_rule);
    ("schedule matches Figure 12", `Quick, test_schedule_matches_figure12);
    ("fusion saves barriers", `Quick, test_fusion_saves_barriers);
  ]
