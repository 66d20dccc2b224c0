(* Autotuning walkthrough (lf_tune): instead of fixing the paper's
   transformation parameters by hand — fuse everything, strip-mine at
   the §3.4 rule of thumb, cache-partition the arrays — let the tuner
   search the joint space of schedule variant, strip size and layout on
   the simulated machine, and inspect what it explores and why.

     dune exec examples/autotune.exe *)

module Machine = Lf_machine.Machine
module Space = Lf_tune.Space
module Cost = Lf_tune.Cost
module Search = Lf_tune.Search
module Tune = Lf_tune.Tune

let () =
  let p = Lf_kernels.Ll18.program ~n:96 () in
  let machine = Machine.convex in

  (* 1. The candidate space.  Enumeration is deterministic and starts
     with the paper-default configuration, so every search can
     tie-break towards it. *)
  let cands = Space.enumerate ~machine p in
  Fmt.pr "=== 1. Search space (%d candidates) ===@." (List.length cands);
  Fmt.pr "paper default: %a@." Space.pp
    (Space.paper_default ~machine p);
  Fmt.pr "rule-of-thumb strip (sec. 3.4): %d@.@."
    (Machine.strip_for machine p);

  (* 2. The two cost tiers.  The analytic tier ranks candidates without
     simulating; the exact tier simulates on Exec and memoises by a
     structural fingerprint of (program, candidate, machine, P). *)
  let nprocs = 4 in
  let cache = Cost.create_cache () in
  let default = Space.paper_default ~machine p in
  Fmt.pr "=== 2. Cost tiers (P = %d) ===@." nprocs;
  (match Cost.analytic ~machine ~nprocs p default with
  | Ok est -> Fmt.pr "analytic estimate of the default: %.4e cycles@." est
  | Error e -> Fmt.pr "analytic failed: %s@." e);
  (match Cost.exact ~cache ~machine ~nprocs p default with
  | Ok e ->
    Fmt.pr "exact (simulated):               %.4e cycles, %d misses@."
      e.Cost.e_cycles e.Cost.e_misses
  | Error e -> Fmt.pr "exact failed: %s@." e);
  ignore (Cost.exact ~cache ~machine ~nprocs p default);
  let s = Cost.stats cache in
  Fmt.pr "memo cache after re-evaluation: %d entry, %d hit@.@."
    s.Cost.entries s.Cost.hits;

  (* 3. A full search.  The default driver prunes with the analytic
     tier and exact-evaluates the survivors; the reference is always
     evaluated, so the result can never lose to the paper default. *)
  Fmt.pr "=== 3. Autotuning LL18 on %s ===@." machine.Machine.mname;
  List.iter
    (fun nprocs ->
      match Tune.tune ~cache ~machine ~nprocs p with
      | Error e -> Fmt.pr "P=%d: %s@." nprocs e
      | Ok o ->
        Fmt.pr "@.P = %d:@." nprocs;
        Tune.pp_outcome Fmt.stdout o)
    [ 1; 4; 8 ];

  (* 4. Drivers trade exhaustiveness for evaluations: compare the
     exact-tier effort of beam search against the default. *)
  Fmt.pr "@.=== 4. Search drivers ===@.";
  List.iter
    (fun (name, driver) ->
      match
        Search.run ~cache:(Cost.create_cache ()) ~driver ~machine ~nprocs:4 p
      with
      | Error e -> Fmt.pr "%-12s %s@." name e
      | Ok o ->
        Fmt.pr "%-12s %2d/%2d exact-evaluated -> %.4e cycles (%s)@." name
          o.Search.considered o.Search.space_size
          o.Search.best_cost.Cost.e_cycles
          (Space.to_string o.Search.best))
    [
      ("exhaustive", Search.Exhaustive);
      ("auto", Search.default_driver);
      ("beam:6", Search.Beam { width = 6; budget = 32 });
      ("greedy", Search.Greedy { budget = 32 });
    ];
  Fmt.pr
    "@.Takeaway: when each processor's share of the data exceeds its@.\
     cache the tuner keeps (or refines) the paper's fused+partitioned@.\
     configuration; once the data fits, it backs off to the unfused@.\
     schedule — the profitability crossover of sec. 5, found@.\
     automatically.@."
