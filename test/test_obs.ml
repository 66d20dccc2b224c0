(* lf_obs: observer-effect freedom and counter-sum invariants.

   The whole value of the observability subsystem rests on the sink
   being passive: attaching one must not change the simulation by a
   single bit, and its counters must sum exactly to the aggregates
   [Exec.result] already reports.  Both are checked here on random
   stencil chains for both machine presets, plus directed tests for
   cross-array conflict attribution, the Chrome trace exporter and the
   calibration hook. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Cache = Lf_cache.Cache
module Obs = Lf_obs.Obs

open QCheck

(* ------------------------------------------------------------------ *)
(* Observer-effect property                                             *)

let gen_chain =
  let open Gen in
  let* nnests = int_range 2 4 in
  let* offsets =
    list_repeat nnests (list_size (int_range 1 3) (int_range (-2) 2))
  in
  let* hi = int_range 24 48 in
  return (Tutil.chain_program ~lo:3 ~hi offsets, offsets, hi)

let arb_chain_config =
  make
    ~print:(fun ((p, offs, hi), (nprocs, strip, fuse)) ->
      Printf.sprintf "%s offsets=%s hi=%d nprocs=%d strip=%d fused=%b"
        p.Ir.pname
        (String.concat ";"
           (List.map
              (fun l -> String.concat "," (List.map string_of_int l))
              offs))
        hi nprocs strip fuse)
    Gen.(pair gen_chain (triple (int_range 1 4) (int_range 2 10) bool))

(* Both runs use the same inputs; one carries a sink.  Everything the
   uninstrumented run reports must be bit-identical, and the sink's
   counter cube must sum exactly to the aggregates. *)
let check_observer_free ?(mode = Exec.Full) ~machine (p : Ir.program) sched =
  let layout =
    Partition.cache_partitioned
      ~cache:
        {
          Partition.capacity = machine.Machine.cache.Cache.capacity;
          line = machine.Machine.cache.Cache.line;
          assoc = machine.Machine.cache.Cache.assoc;
        }
      p.Ir.decls
  in
  let bare =
    Exec.run_opts Exec.default_opts
      (Sim.of_schedule ~mode ~layout ~machine sched)
  in
  let sink = Obs.create () in
  let obs =
    Exec.run_opts (Exec.opts ~sink ())
      (Sim.of_schedule ~mode ~layout ~machine sched)
  in
  let t = Obs.totals sink in
  let ok_store = Interp.equal bare.Exec.store obs.Exec.store in
  let ok_result =
    bare.Exec.cycles = obs.Exec.cycles
    && bare.Exec.barrier_cycles = obs.Exec.barrier_cycles
    && bare.Exec.phase_cycles = obs.Exec.phase_cycles
    && bare.Exec.total_refs = obs.Exec.total_refs
    && bare.Exec.total_misses = obs.Exec.total_misses
    && bare.Exec.cold_misses = obs.Exec.cold_misses
    && bare.Exec.tlb_misses = obs.Exec.tlb_misses
    && bare.Exec.proc_misses = obs.Exec.proc_misses
  in
  let ok_sums =
    t.Obs.t_refs = obs.Exec.total_refs
    && t.Obs.t_misses = obs.Exec.total_misses
    && t.Obs.t_cold = obs.Exec.cold_misses
    && t.Obs.t_tlb = obs.Exec.tlb_misses
    && t.Obs.t_cross + t.Obs.t_self = t.Obs.t_misses - t.Obs.t_cold
    && Obs.proc_misses sink = obs.Exec.proc_misses
    && Obs.barrier_cycles sink = obs.Exec.barrier_cycles
  in
  if not ok_store then Test.fail_report "store differs with sink attached";
  if not ok_result then
    Test.fail_report "result aggregates differ with sink attached";
  if not ok_sums then
    Test.fail_report "sink counters do not sum to Exec.result aggregates";
  true

let prop_observer_free ?mode ?(tag = "") ~machine name =
  Test.make ~count:60
    ~name:
      ("sink is observer-effect-free and sums exactly (" ^ name ^ tag ^ ")")
    arb_chain_config
    (fun ((p, _, _), (nprocs, strip, fuse)) ->
      match
        if fuse then Schedule.fused ~nprocs ~strip p
        else Schedule.unfused ~nprocs p
      with
      | exception Schedule.Illegal _ -> true
      | exception Invalid_argument _ -> true (* more procs than iters *)
      | sched -> check_observer_free ?mode ~machine p sched)

(* ------------------------------------------------------------------ *)
(* Directed tests                                                       *)

(* A tiny machine with a 1 KB direct-mapped cache and no TLB: two 64 x
   8-byte arrays alias exactly, so an alternating access pattern is all
   cross-array conflicts. *)
let tiny_machine =
  {
    Machine.mname = "tiny";
    max_procs = 2;
    hypernode = 2;
    cache = { Cache.capacity = 1024; line = 64; assoc = 1 };
    tlb = None;
    cost =
      {
        Machine.op = 1.0;
        hit = 1.0;
        miss_local = 10.0;
        miss_remote = 0.0;
        barrier_base = 10.0;
        barrier_per_proc = 0.0;
        loop_overhead = 1.0;
        iter_overhead = 1.0;
        tlb_miss = 0.0;
      };
  }

(* c[i] = a[i] + b[i] over two cache-aliasing source arrays. *)
let aliasing_program n =
  let i = Ir.av "i" in
  {
    Ir.pname = "alias";
    decls =
      List.map (fun a -> { Ir.aname = a; extents = [ n ] }) [ "a"; "b"; "c" ];
    nests =
      [
        {
          Ir.nid = "L1";
          levels = [ { Ir.lvar = "i"; lo = 0; hi = n - 1; parallel = true } ];
          body =
            [
              Ir.stmt
                (Ir.aref "c" [ i ])
                (Ir.Bin
                   ( Ir.Add,
                     Ir.Read (Ir.aref "a" [ i ]),
                     Ir.Read (Ir.aref "b" [ i ]) ));
            ];
        };
      ];
  }

let run_alias layout_of =
  let p = aliasing_program 128 in
  let sink = Obs.create () in
  let r =
    Exec.run_opts (Exec.opts ~sink ())
      (Sim.of_schedule ~layout:(layout_of p) ~machine:tiny_machine
         (Schedule.unfused ~nprocs:1 p))
  in
  (sink, r)

let test_cross_attribution () =
  (* contiguous: a, b (and c) alias in the 1 KB cache -> cross misses *)
  let sink, r = run_alias (fun p -> Partition.contiguous p.Ir.decls) in
  let t = Obs.totals sink in
  Alcotest.(check bool) "misses exceed cold" true (t.Obs.t_misses > t.Obs.t_cold);
  Alcotest.(check bool) "cross-array conflicts found" true (t.Obs.t_cross > 0);
  Alcotest.(check int) "all non-cold misses are cross-array" t.Obs.t_cross
    (t.Obs.t_misses - t.Obs.t_cold);
  Alcotest.(check int) "sums to result" r.Exec.total_misses t.Obs.t_misses;
  (* partitioned: disjoint set regions -> compulsory misses only *)
  let psink, _ =
    run_alias (fun p ->
        Partition.cache_partitioned
          ~cache:{ Partition.capacity = 1024; line = 64; assoc = 1 }
          p.Ir.decls)
  in
  let pt = Obs.totals psink in
  Alcotest.(check int) "partitioned: no cross conflicts" 0 pt.Obs.t_cross;
  Alcotest.(check int) "partitioned: only cold misses" pt.Obs.t_cold
    pt.Obs.t_misses

let test_breakdown_tables () =
  let sink, r = run_alias (fun p -> Partition.contiguous p.Ir.decls) in
  let sum_rows rows =
    List.fold_left (fun acc (_, t) -> acc + t.Obs.t_misses) 0 rows
  in
  List.iter
    (fun by ->
      Alcotest.(check int) "rows sum to total misses" r.Exec.total_misses
        (sum_rows (Exec.breakdown sink ~by)))
    [ Obs.By_array; Obs.By_phase; Obs.By_proc ];
  let arrays = List.map fst (Exec.breakdown sink ~by:Obs.By_array) in
  Alcotest.(check (list string)) "array rows in decl order"
    [ "a"; "b"; "c" ] arrays

(* The exporter must produce well-formed JSON with one span per phase
   and barrier and the per-processor metadata threads. *)
let test_trace_json () =
  let p = Tutil.chain_program ~lo:3 ~hi:40 [ [ 0 ]; [ -1; 1 ] ] in
  let sink = Obs.create ~layout:"partitioned" () in
  let _ =
    Exec.run_opts (Exec.opts ~sink ())
      (Sim.of_schedule ~machine:Machine.convex ~steps:2
         (Schedule.fused ~nprocs:2 ~strip:8 p))
  in
  let json = Obs.trace_json sink in
  let count_sub sub =
    let n = String.length json and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else if String.sub json i m = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check bool) "starts as a trace object" true
    (Tutil.contains json "{\"traceEvents\": [");
  (* 2 phases x 2 steps, "X" complete events *)
  Alcotest.(check int) "phase spans" 4 (count_sub "\"cat\":\"phase\"");
  (* one barrier between phases except after the last: 2*2 - 1 *)
  Alcotest.(check int) "barrier spans" 3 (count_sub "\"cat\":\"barrier\"");
  Alcotest.(check int) "thread metadata" 3 (count_sub "\"ph\":\"M\"");
  Alcotest.(check bool) "box spans present" true
    (count_sub "\"cat\":\"box\"" > 0);
  Alcotest.(check bool) "machine recorded" true
    (Tutil.contains json "\"machine\": \"Convex SPP-1000\"");
  Alcotest.(check bool) "layout recorded" true
    (Tutil.contains json "\"layout\": \"partitioned\"")

(* Per-phase cycles recorded by the sink agree with the result's
   phase_cycles (each phase's max over processors). *)
let test_phase_cycles () =
  let p = Tutil.chain_program ~lo:3 ~hi:40 [ [ 0 ]; [ -1; 1 ] ] in
  let sink = Obs.create () in
  let r =
    Exec.run_opts (Exec.opts ~sink ())
      (Sim.of_schedule ~machine:Machine.ksr2
         (Schedule.fused ~nprocs:2 ~strip:8 p))
  in
  let pc = Obs.phase_proc_cycles sink in
  Array.iteri
    (fun ph cycles ->
      let mx = Array.fold_left Float.max 0.0 pc.(ph) in
      Alcotest.(check (float 1e-6)) "phase max cycles" cycles mx)
    r.Exec.phase_cycles;
  Alcotest.(check int) "phase labels" 2 (Obs.nphases sink);
  Alcotest.(check string) "fused label" "fused" (Obs.phase_label sink 0);
  Alcotest.(check string) "peeled label" "peeled" (Obs.phase_label sink 1)

(* Calibration: a recorded profile keys the measured factor by layout
   tag and overrides the heuristic for exactly that layout. *)
let test_calibration () =
  let module Space = Lf_tune.Space in
  let module Cost = Lf_tune.Cost in
  let sink, _ = run_alias (fun p -> Partition.contiguous p.Ir.decls) in
  Obs.set_layout sink "contiguous";
  let calibration = Cost.calibration_of_sink sink in
  let t = Obs.totals sink in
  let expected =
    float_of_int t.Obs.t_misses /. float_of_int (max 1 t.Obs.t_cold)
  in
  Alcotest.(check (float 1e-9)) "factor is misses/cold" expected
    (List.assoc "contiguous" calibration);
  let cand layout = { Space.variant = Space.Unfused; layout } in
  Alcotest.(check (float 1e-9)) "calibrated layout uses measurement"
    expected
    (Cost.conflict_factor ~calibration ~machine:tiny_machine
       (cand Space.Contiguous));
  Alcotest.(check (float 1e-9)) "other layouts keep the heuristic" 1.0
    (Cost.conflict_factor ~calibration ~machine:tiny_machine
       (cand (Space.Partitioned { assoc_aware = true })))

let suite =
  [
    Tutil.to_alcotest (prop_observer_free ~machine:Machine.ksr2 "ksr2");
    Tutil.to_alcotest (prop_observer_free ~machine:Machine.convex "convex");
    (* the batched engine takes entirely different probe paths
       (wholesale hit/miss recorders, deferred TLB settlement); it must
       be exactly as observer-effect-free as the scalar one *)
    Tutil.to_alcotest
      (prop_observer_free ~mode:Exec.Run_compressed ~tag:", run-compressed"
         ~machine:Machine.ksr2 "ksr2");
    Tutil.to_alcotest
      (prop_observer_free ~mode:Exec.Run_compressed ~tag:", run-compressed"
         ~machine:Machine.convex "convex");
    Alcotest.test_case "cross-array attribution" `Quick
      test_cross_attribution;
    Alcotest.test_case "breakdown tables sum" `Quick test_breakdown_tables;
    Alcotest.test_case "chrome trace export" `Quick test_trace_json;
    Alcotest.test_case "phase cycles and labels" `Quick test_phase_cycles;
    Alcotest.test_case "calibration from profile" `Quick test_calibration;
  ]
