(* Autotuned versus paper-default configurations (lf_tune): for every
   kernel and application of Table 1, on both machine presets, the
   autotuner searches the joint (schedule variant, strip size, layout)
   space and the table compares its pick against the configuration the
   paper's evaluation fixes by hand.  By construction the tuner never
   selects a configuration worse than the paper default (the search
   keeps the reference unless strictly beaten), and the final verdict
   line checks exactly that over every row.

   Sizes are reduced relative to the figure experiments because tuning
   multiplies the simulation cost by the number of surviving
   candidates; one shared memo cache serves every search. *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Apps = Lf_kernels.Apps
module Tune = Lf_tune.Tune
module TSearch = Lf_tune.Search
module TCost = Lf_tune.Cost

let driver = TSearch.Beam { width = 8; budget = 64 }

let machines = [ Machine.ksr2; Machine.convex ]

let procs cfg = Util.cap_procs cfg (Util.scale cfg [ 1; 8; 16 ] [ 1; 4 ])

let table_header () =
  Util.pr "%-10s %-7s %3s %14s %14s %8s  %s@." "code" "machine" "P"
    "default-cyc" "tuned-cyc" "gain" "selected configuration"

let row_prefix name machine nprocs =
  let short =
    match String.index_opt machine.Machine.mname ' ' with
    | None -> machine.Machine.mname
    | Some i -> String.sub machine.Machine.mname 0 i
  in
  Util.pr "%-10s %-7s %3d " name short nprocs

(* A row never loses when the tuned cycles do not exceed the default's
   (shared across kernel and application rows, checked at the end). *)
let never_lost = ref true
let rows_checked = ref 0

let note (o : TSearch.outcome) =
  incr rows_checked;
  if o.TSearch.best_cost.TCost.e_cycles
     > o.TSearch.default_cost.TCost.e_cycles
  then never_lost := false

let kernel_rows ~cache cfg name (p : Ir.program) =
  List.iter
    (fun machine ->
      List.iter
        (fun nprocs ->
          row_prefix name machine nprocs;
          match Tune.tune ~cache ~driver ~machine ~nprocs p with
          | Error e -> Util.pr "skipped: %s@." e
          | Ok o ->
            note o;
            Util.pr "%a@." Tune.pp_row o)
        (procs cfg))
    machines

(* Applications: each fusible sequence is tuned independently (the
   remainder is never transformed, so its unfused cycles are added to
   both sides of the comparison, as in Figures 21/25). *)
let app_rows ~cache cfg name (app : Apps.t) =
  List.iter
    (fun machine ->
      List.iter
        (fun nprocs ->
          row_prefix name machine nprocs;
          let outcomes =
            List.filter_map
              (fun seq ->
                match Tune.tune ~cache ~driver ~machine ~nprocs seq with
                | Ok o -> Some o
                | Error _ -> None)
              app.Apps.sequences
          in
          if outcomes = [] then Util.pr "skipped: no tunable sequence@."
          else begin
            List.iter note outcomes;
            let sum f = List.fold_left (fun a o -> a +. f o) 0.0 outcomes in
            let def = sum (fun o -> o.TSearch.default_cost.TCost.e_cycles) in
            let tuned = sum (fun o -> o.TSearch.best_cost.TCost.e_cycles) in
            let rem =
              match app.Apps.remainder with
              | None -> 0.0
              | Some rem ->
                let layout = Util.partitioned_layout machine rem in
                let r =
                  Exec.run_opts Exec.default_opts
                    (Lf_machine.Sim.unfused ~layout ~machine ~nprocs rem)
                in
                float_of_int app.Apps.remainder_reps *. r.Exec.cycles
            in
            let retuned =
              List.length
                (List.filter
                   (fun o -> o.TSearch.best <> o.TSearch.default)
                   outcomes)
            in
            Util.pr "%14.4e %14.4e %+7.1f%%  %d/%d sequences retuned@."
              (def +. rem) (tuned +. rem)
              (100.0 *. (((def +. rem) /. (tuned +. rem)) -. 1.0))
              retuned (List.length outcomes)
          end)
        (procs cfg))
    machines

let run cfg =
  Util.header
    "Autotuner (lf_tune): tuned vs paper-default configurations";
  let cache = TCost.create_cache () in
  Util.pr "search driver: beam(width=8, budget=64); shared memo cache@.@.";
  table_header ();
  kernel_rows ~cache cfg "LL18"
    (Lf_kernels.Ll18.program ~n:(Util.scale cfg 256 64) ());
  kernel_rows ~cache cfg "calc"
    (Lf_kernels.Calc.program ~n:(Util.scale cfg 256 64) ());
  kernel_rows ~cache cfg "filter"
    (Lf_kernels.Filter.program
       ~rows:(Util.scale cfg 320 80)
       ~cols:(Util.scale cfg 128 32)
       ());
  let tomcatv =
    if cfg.Util.quick then Apps.tomcatv ~n:65 () else Apps.tomcatv ~n:257 ()
  in
  let hydro2d =
    if cfg.Util.quick then Apps.hydro2d ~rows:80 ~cols:40 ()
    else Apps.hydro2d ~rows:200 ~cols:80 ()
  in
  let spem =
    if cfg.Util.quick then Apps.spem ~d0:16 ~d1:17 ~d2:17 ()
    else Apps.spem ~d0:30 ~d1:25 ~d2:25 ()
  in
  app_rows ~cache cfg "tomcatv" tomcatv;
  app_rows ~cache cfg "hydro2d" hydro2d;
  app_rows ~cache cfg "spem" spem;
  let s = TCost.stats cache in
  Util.pr "@.memo cache: %d entries, %d cold simulations, %d hits@."
    s.TCost.entries s.TCost.misses s.TCost.hits;
  Util.pr "never lost to paper default across %d rows: %s@." !rows_checked
    (if !never_lost then "OK" else "FAIL");
  Util.pr
    "@.Expected shape: at low P (per-processor data exceeding the cache)@.\
     the tuner keeps or refines the paper's fused configuration; once@.\
     the data fits (high P, small sizes) it backs off to the unfused@.\
     schedule, matching the profitability crossover of Figures 22-25.@."
