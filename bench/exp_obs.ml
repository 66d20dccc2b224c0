(* Experiment obs: re-derive the Figure 18/20 story by attribution.

   Figures 18/20 show *that* fusing LL18 without conflict avoidance
   loses its benefit and that cache partitioning restores it; the
   aggregate miss counts cannot show *why*.  With lf_obs attached the
   why is direct: under a contiguous (or padded) layout nearly all
   non-cold misses of the fused loop are cross-array conflicts — one
   array's lines evicting another's — and under Figure 19 cache
   partitioning the cross-array column drops to (near) zero, leaving
   only compulsory traffic.

   The recorded profiles also calibrate lf_tune's analytic tier: the
   measured misses/cold factor per layout replaces the built-in
   layout heuristics (Cost.conflict_factor). *)

module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Obs = Lf_obs.Obs
module TCost = Lf_tune.Cost
module Space = Lf_tune.Space

let nprocs = 8

(* Each (tag, layout builder, candidate layout spec): the tag matches
   Space.layout_to_string so profiles key calibration entries. *)
let layouts machine =
  [
    ("contiguous", Util.contiguous_layout, Space.Contiguous);
    ("pad:1", Util.padded_layout ~pad:1, Space.Padded 1);
    ("pad:9", Util.padded_layout ~pad:9, Space.Padded 9);
    ( "partitioned",
      Util.partitioned_layout machine,
      Space.Partitioned { assoc_aware = true } );
  ]

let profile_layout ~machine ~strip p (tag, mk_layout, _spec) =
  let sink = Obs.create ~layout:tag () in
  (* attribution reads the sink and cycle counts, never the store:
     the run-compressed fast path records identical profiles.  A
     sinked request always computes (a store replay cannot populate
     the sink) but persists its result for sink-less reuse. *)
  let r =
    Lf_batch.Batch.run_one_with
      (Lf_batch.Run_opts.with_sink sink !Util.opts)
      (Lf_machine.Sim.fused ~mode:Lf_machine.Sim.Run_compressed
         ~layout:(mk_layout p) ~machine ~nprocs ~strip p)
  in
  (tag, sink, r)

let run cfg =
  Util.header "Experiment obs: conflict-miss attribution for fused LL18";
  let machine = Machine.convex in
  (* power-of-two sizes so back-to-back arrays alias pathologically on
     the direct-mapped Convex cache (the Figure 18 setting): at n=256
     each array is exactly half the 1 MB cache *)
  let n = Util.scale cfg 512 256 in
  let p = Lf_kernels.Ll18.program ~n () in
  let strip = Util.strip_for machine p in
  let profiles =
    List.map (profile_layout ~machine ~strip p) (layouts machine)
  in
  Util.pr "fused LL18, n=%d, %s, %d processors@.@." n
    machine.Machine.mname nprocs;
  Util.pr "%-14s %10s %9s %9s %9s  %s@." "layout" "misses" "cold" "cross"
    "self" "cycles";
  List.iter
    (fun (tag, sink, r) ->
      let t = Obs.totals sink in
      Util.pr "%-14s %10d %9d %9d %9d  %.4e@." tag t.Obs.t_misses t.Obs.t_cold
        t.Obs.t_cross t.Obs.t_self r.Exec.cycles)
    profiles;

  Util.subheader "per-array attribution (contiguous vs partitioned)";
  let table tag =
    let _, sink, _ = List.find (fun (t, _, _) -> t = tag) profiles in
    Util.pr "layout %s:@.%a@." tag (Obs.pp_table ~by:Obs.By_array) sink
  in
  table "contiguous";
  table "partitioned";

  Util.subheader "per-phase attribution (partitioned)";
  let _, psink, _ = List.find (fun (t, _, _) -> t = "partitioned") profiles in
  Util.pr "%a" (Obs.pp_table ~by:Obs.By_phase) psink;

  Util.subheader "calibration: measured miss factor vs analytic heuristic";
  let calibration =
    List.concat_map (fun (_, sink, _) -> TCost.calibration_of_sink sink)
      profiles
  in
  Util.pr "%-14s %10s %10s@." "layout" "measured" "heuristic";
  List.iter
    (fun (tag, _, spec) ->
      let cand =
        { Space.variant = Space.Fused { clustered = false; strip };
          layout = spec }
      in
      Util.pr "%-14s %10.3f %10.3f@." tag
        (List.assoc tag calibration)
        (TCost.conflict_factor ~machine cand))
    (layouts machine);

  let cross tag =
    let _, sink, _ = List.find (fun (t, _, _) -> t = tag) profiles in
    (Obs.totals sink).Obs.t_cross
  in
  Util.pr
    "@.Verdict: contiguous layout suffers %d cross-array conflict misses;@.\
     cache partitioning (Fig. 19) leaves %d — the attribution shows the@.\
     padding-vs-partitioning gap of Figures 18/20 is cross-interference.@."
    (cross "contiguous") (cross "partitioned")
