(* Tests for the lf_tune autotuner: memo-cache behaviour of the exact
   cost tier, the store policy it runs under, determinism of the search
   drivers, the never-lose guarantee against the paper-default
   configuration, and (QCheck) that the analytic pruning tier never
   discards the exact-tier optimum. *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Space = Lf_tune.Space
module Cost = Lf_tune.Cost
module Search = Lf_tune.Search
module Tune = Lf_tune.Tune

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let ll18 n = Lf_kernels.Ll18.program ~n ()

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* ------------------------------------------------------------------ *)
(* Memo cache                                                          *)

let test_memo_hit_miss () =
  let p = ll18 32 in
  let cand = Space.paper_default ~machine:Machine.convex p in
  let cache = Cost.create_cache () in
  let a = get (Cost.exact ~cache ~machine:Machine.convex ~nprocs:2 p cand) in
  let s1 = Cost.stats cache in
  check int "one cold eval" 1 s1.Cost.misses;
  check int "no hit yet" 0 s1.Cost.hits;
  check int "one entry" 1 s1.Cost.entries;
  let b = get (Cost.exact ~cache ~machine:Machine.convex ~nprocs:2 p cand) in
  let s2 = Cost.stats cache in
  check int "second eval is a hit" 1 s2.Cost.hits;
  check int "still one cold eval" 1 s2.Cost.misses;
  check bool "memoised result identical" true
    (a.Cost.e_cycles = b.Cost.e_cycles && a.Cost.e_misses = b.Cost.e_misses)

let test_memo_key_sensitivity () =
  let p = ll18 32 in
  let cand = Space.paper_default ~machine:Machine.convex p in
  let cache = Cost.create_cache () in
  let run ~machine ~nprocs p cand =
    ignore (get (Cost.exact ~cache ~machine ~nprocs p cand))
  in
  run ~machine:Machine.convex ~nprocs:2 p cand;
  (* a different processor count, machine, candidate or program must
     each miss the cache *)
  run ~machine:Machine.convex ~nprocs:4 p cand;
  run ~machine:Machine.ksr2 ~nprocs:2 p cand;
  run ~machine:Machine.convex ~nprocs:2 p
    { cand with Space.layout = Space.Contiguous };
  run ~machine:Machine.convex ~nprocs:2 (ll18 40) cand;
  let s = Cost.stats cache in
  check int "five distinct keys" 5 s.Cost.entries;
  check int "five cold evals" 5 s.Cost.misses;
  check int "no spurious hits" 0 s.Cost.hits;
  (* and the fingerprints really differ *)
  let f1 = Cost.fingerprint ~machine:Machine.convex ~nprocs:2 p cand in
  let f2 = Cost.fingerprint ~machine:Machine.convex ~nprocs:4 p cand in
  let f3 = Cost.fingerprint ~machine:Machine.convex ~nprocs:2 (ll18 40) cand in
  check bool "nprocs in key" true (f1 <> f2);
  check bool "program in key" true (f1 <> f3);
  check bool "key deterministic" true
    (f1 = Cost.fingerprint ~machine:Machine.convex ~nprocs:2 p cand)

(* ------------------------------------------------------------------ *)
(* Deterministic search                                                *)

let test_beam_deterministic () =
  let p = ll18 48 in
  let driver = Search.Beam { width = 6; budget = 32 } in
  let run () =
    get
      (Search.run
         ~cache:(Cost.create_cache ())
         ~driver ~machine:Machine.ksr2 ~nprocs:4 p)
  in
  let a = run () and b = run () in
  check bool "same best candidate" true (a.Search.best = b.Search.best);
  check bool "same best cycles" true
    (a.Search.best_cost.Cost.e_cycles = b.Search.best_cost.Cost.e_cycles);
  check int "same exact evals" a.Search.considered b.Search.considered

let test_budget_respected () =
  let p = ll18 48 in
  let o =
    get
      (Search.run
         ~driver:(Search.Beam { width = 4; budget = 4 })
         ~machine:Machine.convex ~nprocs:2 p)
  in
  (* width 4 plus the always-evaluated reference *)
  check bool "beam width caps exact tier" true (o.Search.considered <= 5);
  check bool "space larger than beam" true (o.Search.space_size > 5)

(* ------------------------------------------------------------------ *)
(* Store path: the options' policy decides what the exact tier reads
   from and writes to the on-disk result store                         *)

module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts

let test_store_policies () =
  let fresh_root () =
    let path = Filename.temp_file "lf_tune_store" "" in
    Sys.remove path;
    path
  in
  let entries root =
    (Batch.Store.stats (Batch.Store.open_ ~dir:root ())).Batch.Store.entries
  in
  let root = fresh_root () and unused = fresh_root () in
  let p = ll18 48 in
  (* a fresh memo cache per search, so every exact lookup reaches the
     batch layer; returns the outcome, the cold evaluations issued,
     and the simulations computed and store hits taken meanwhile *)
  let search store =
    let cache = Cost.create_cache () in
    let c0 = Batch.computed_count () and h0 = Batch.hit_count () in
    let o =
      get
        (Search.run ~cache ~opts:(Run_opts.make ~store ())
           ~driver:(Search.Beam { width = 4; budget = 4 })
           ~machine:Machine.convex ~nprocs:2 p)
    in
    ( o,
      (Cost.stats cache).Cost.misses,
      Batch.computed_count () - c0,
      Batch.hit_count () - h0 )
  in
  let warm = Run_opts.Store_in (Some root) in
  let o1, evals, computed1, _ = search warm in
  check bool "Store_in computes" true (computed1 > 0);
  check int "Store_in persists every computed evaluation" computed1
    (entries root);
  let o2, _, computed2, hits2 = search warm in
  check int "repeat computes nothing" 0 computed2;
  check int "repeat answered from the store" evals hits2;
  check bool "repeat finds the same configuration" true
    (o1.Search.best = o2.Search.best
    && o1.Search.best_cost.Cost.e_cycles = o2.Search.best_cost.Cost.e_cycles);
  let _, cold_evals, computed3, hits3 =
    search (Run_opts.Store_cold (Some root))
  in
  check int "Store_cold takes no store hit" 0 hits3;
  check int "Store_cold computes every evaluation" cold_evals computed3;
  (* Store_off must not fall back to the default root either *)
  let saved = Option.value (Sys.getenv_opt "LF_CACHE_DIR") ~default:"" in
  Unix.putenv "LF_CACHE_DIR" unused;
  let _, off_evals, computed4, _ =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "LF_CACHE_DIR" saved)
      (fun () -> search Run_opts.Store_off)
  in
  check int "Store_off computes every evaluation" off_evals computed4;
  check int "Store_off writes no entry" 0 (entries unused);
  check int "Store_off leaves the warm root alone" computed1 (entries root)

(* ------------------------------------------------------------------ *)
(* Never-lose guarantee                                                *)

let test_never_worse_than_default () =
  let codes =
    [
      ("ll18", ll18 48, 1);
      ("calc", Lf_kernels.Calc.program ~n:48 (), 1);
      ("filter", Lf_kernels.Filter.program ~rows:48 ~cols:32 (), 1);
      ("jacobi", Lf_kernels.Jacobi.program ~n:32 (), 2);
    ]
  in
  let cache = Cost.create_cache () in
  List.iter
    (fun (name, p, depth) ->
      List.iter
        (fun machine ->
          List.iter
            (fun nprocs ->
              let o =
                get (Tune.tune ~depth ~cache ~machine ~nprocs p)
              in
              let label =
                Printf.sprintf "%s/%s/P%d tuned <= default" name
                  machine.Machine.mname nprocs
              in
              check bool label true
                (o.Search.best_cost.Cost.e_cycles
                 <= o.Search.default_cost.Cost.e_cycles);
              check bool (label ^ " (improvement >= 0)") true
                (Tune.improvement_pct o >= 0.0))
            [ 1; 4 ])
        [ Machine.ksr2; Machine.convex ])
    codes

let test_default_is_paper_for_kernels () =
  let o = get (Tune.tune ~machine:Machine.convex ~nprocs:2 (ll18 48)) in
  check bool "reference is the paper default" true o.Search.default_is_paper;
  check bool "paper default enumerated first" true
    (List.hd (Space.enumerate ~machine:Machine.convex (ll18 48))
    = Space.paper_default ~machine:Machine.convex (ll18 48))

(* ------------------------------------------------------------------ *)
(* QCheck: the analytic tier never prunes the exact optimum            *)

let gen_chain =
  let open QCheck.Gen in
  let* nnests = int_range 2 4 in
  let* offsets =
    list_repeat nnests (list_size (int_range 1 2) (int_range (-2) 2))
  in
  let* hi = int_range 24 64 in
  return (Tutil.chain_program ~lo:3 ~hi offsets, offsets, hi)

let arb_chain =
  QCheck.make
    ~print:(fun (_, offs, hi) ->
      Printf.sprintf "hi=%d offsets=%s" hi
        (String.concat ";"
           (List.map
              (fun l -> String.concat "," (List.map string_of_int l))
              offs)))
    gen_chain

let prop_prune_keeps_optimum =
  QCheck.Test.make ~count:30
    ~name:"analytic tier never prunes the exact optimum" arb_chain
    (fun (p, _, _) ->
      let machine = Machine.convex and nprocs = 2 in
      let scored =
        List.filter_map
          (fun c ->
            match Cost.analytic ~machine ~nprocs p c with
            | Ok est -> Some (c, est)
            | Error _ -> None)
          (Space.enumerate ~machine p)
      in
      let cache = Cost.create_cache () in
      let exacts =
        List.filter_map
          (fun (c, _) ->
            match Cost.exact ~cache ~machine ~nprocs p c with
            | Ok e -> Some (c, e.Cost.e_cycles)
            | Error _ -> None)
          scored
      in
      match exacts with
      | [] -> true
      | first :: rest ->
        let best, _ =
          List.fold_left
            (fun (bc, be) (c, e) -> if e < be then (c, e) else (bc, be))
            first rest
        in
        let kept = Search.prune ~margin:4.0 ~keep:12 scored in
        List.exists (fun (c, _) -> c = best) kept)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ("memo cache hit/miss", `Quick, test_memo_hit_miss);
    ("memo key sensitivity", `Quick, test_memo_key_sensitivity);
    ("beam search deterministic", `Quick, test_beam_deterministic);
    ("beam budget respected", `Quick, test_budget_respected);
    ("store policies reach the exact tier", `Quick, test_store_policies);
    ("never worse than paper default", `Slow, test_never_worse_than_default);
    ("reference is paper default", `Quick, test_default_is_paper_for_kernels);
    Tutil.to_alcotest prop_prune_keeps_optimum;
  ]
