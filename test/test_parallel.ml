(* Tests for the domains runtime: the pool (regions that find the
   workers spinning or parked, more workers than cores) and the spin
   barrier.  Native execution on them is pinned bit-for-bit by
   test_native.ml. *)

module Pool = Lf_parallel.Pool

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let with_pool n f =
  let pool = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_runs_all_workers () =
  with_pool 4 (fun pool ->
      let seen = Array.make 4 false in
      Pool.run pool (fun w -> seen.(w) <- true);
      check bool "all workers ran" true (Array.for_all (fun b -> b) seen))

let test_pool_multiple_regions () =
  with_pool 3 (fun pool ->
      let counter = Atomic.make 0 in
      for _ = 1 to 50 do
        Pool.run pool (fun _ -> Atomic.incr counter)
      done;
      check int "150 executions" 150 (Atomic.get counter))

let test_pool_single_worker () =
  with_pool 1 (fun pool ->
      let hit = ref false in
      Pool.run pool (fun w ->
          check int "worker 0" 0 w;
          hit := true);
      check bool "ran" true !hit)

let test_with_pool_value_and_cleanup () =
  let v = Pool.with_pool 3 (fun pool -> Pool.size pool * 7) in
  check int "returns f's value" 21 v;
  (* the pool is shut down even when f raises *)
  match Pool.with_pool 2 (fun _ -> failwith "boom") with
  | exception Failure m -> check bool "exception propagates" true (m = "boom")
  | _ -> Alcotest.fail "expected Failure"

let test_run_exception_rejoins () =
  with_pool 4 (fun pool ->
      (* one worker raises: the join must complete and re-raise *)
      (match Pool.run pool (fun w -> if w = 2 then failwith "w2") with
      | exception Failure m -> check bool "first exception" true (m = "w2")
      | () -> Alcotest.fail "expected Failure");
      (* the pool is still usable for subsequent regions *)
      let counter = Atomic.make 0 in
      Pool.run pool (fun _ -> Atomic.incr counter);
      check int "pool usable after failure" 4 (Atomic.get counter))

let dynamic_for_covers cases =
  List.iter
    (fun (workers, chunk, lo, hi) ->
      with_pool workers (fun pool ->
          let seen = Array.make 120 0 in
          Pool.dynamic_for ?chunk pool ~lo ~hi (fun i ->
              seen.(i) <- seen.(i) + 1);
          Array.iteri
            (fun i c ->
              check int
                (Printf.sprintf "w=%d index %d" workers i)
                (if i >= lo && i <= hi then 1 else 0)
                c)
            seen))
    cases

let test_dynamic_for_coverage () =
  dynamic_for_covers
    [
      (1, None, 0, 99);
      (3, None, 5, 94);
      (4, Some 7, 0, 119);
      (4, Some 200, 10, 20);
      (2, None, 50, 49) (* empty range *);
    ]

let test_dynamic_for_imbalanced () =
  (* self-scheduling drains a heavily skewed workload: every index is
     claimed exactly once even when early iterations are much slower *)
  with_pool 4 (fun pool ->
      let sum = Atomic.make 0 in
      Pool.dynamic_for pool ~lo:1 ~hi:60 (fun i ->
          if i < 4 then ignore (Sys.opaque_identity (Array.make 10000 i));
          ignore (Atomic.fetch_and_add sum i));
      check int "sum of 1..60" 1830 (Atomic.get sum))

(* ------------------------------------------------------------------ *)
(* Spinning and parking between regions                                *)

(* Longer than the window in which an idle worker, or a caller waiting
   for the join, spins before it parks. *)
let past_spin_window () = Unix.sleepf 0.05

(* Region [k] has every worker write [k] into its slot; the caller
   must see every slot written once [run] returns. *)
let region_visible pool k =
  let slots = Array.make (Pool.size pool) (-1) in
  Pool.run pool (fun w -> slots.(w) <- k);
  Array.iteri
    (fun w v -> check int (Printf.sprintf "region %d worker %d" k w) k v)
    slots

let test_back_to_back_regions () =
  (* each region starts while the workers still spin after the last *)
  with_pool 2 (fun pool ->
      for k = 1 to 2000 do
        region_visible pool k
      done)

let test_region_after_park () =
  with_pool 3 (fun pool ->
      for k = 1 to 3 do
        past_spin_window ();
        region_visible pool k
      done)

let test_exception_spin_and_park () =
  with_pool 2 (fun pool ->
      let expect_raise label f =
        match Pool.run pool f with
        | exception Failure m -> check bool label true (m = "w1")
        | () -> Alcotest.failf "%s: expected Failure" label
      in
      region_visible pool 1;
      (* spin path: the worker is still spinning after region 1 *)
      expect_raise "raised while spinning" (fun w ->
          if w = 1 then failwith "w1");
      region_visible pool 2;
      (* park path: the worker parked, and the caller's join parks
         while the worker sleeps *)
      past_spin_window ();
      expect_raise "raised after parking" (fun w ->
          if w = 1 then begin
            past_spin_window ();
            failwith "w1"
          end);
      region_visible pool 3;
      past_spin_window ();
      region_visible pool 4)

(* Each pool spawns a domain; OCaml caps how many can be alive at once
   (128), so a pool that was not cleaned up fails a later spawn. *)
let leak_rounds = 150

let test_shutdown_after_region () =
  for k = 1 to leak_rounds do
    let pool = Pool.create 2 in
    region_visible pool k;
    Pool.shutdown pool
  done

let test_with_pool_cleans_up_after_region () =
  for k = 1 to leak_rounds do
    match
      Pool.with_pool 2 (fun pool ->
          region_visible pool k;
          failwith "f")
    with
    | exception Failure m -> check bool "f's exception" true (m = "f")
    | () -> Alcotest.fail "expected Failure"
  done

let test_oversubscribed_pool () =
  let n = Domain.recommended_domain_count () + 1 in
  with_pool n (fun pool ->
      region_visible pool 1;
      past_spin_window ();
      region_visible pool 2);
  dynamic_for_covers
    [ (n, None, 0, 119); (n, Some 7, 5, 94); (n, Some 200, 10, 20) ]

(* ------------------------------------------------------------------ *)
(* Spin barrier (lf_native's phase separator)                          *)

module Spin = Lf_parallel.Spin_barrier

let test_spin_barrier_phases () =
  (* all participants finish phase 1 before any enters phase 2 *)
  with_pool 4 (fun pool ->
      let b = Spin.create 4 in
      let phase1 = Atomic.make 0 in
      let violations = Atomic.make 0 in
      Pool.run pool (fun _ ->
          Atomic.incr phase1;
          Spin.wait b;
          if Atomic.get phase1 <> 4 then Atomic.incr violations);
      check int "no violations" 0 (Atomic.get violations))

let test_spin_barrier_reusable () =
  (* sense reversal: many generations through the same barrier, with
     enough crossings to cross the spin budget's sleep fallback on an
     oversubscribed host *)
  with_pool 3 (fun pool ->
      let b = Spin.create 3 in
      let count = Atomic.make 0 in
      Pool.run pool (fun _ ->
          for _ = 1 to 50 do
            Spin.wait b;
            Atomic.incr count
          done);
      check int "150 crossings" 150 (Atomic.get count))

let test_spin_barrier_single_party () =
  let b = Spin.create 1 in
  for _ = 1 to 5 do Spin.wait b done;
  check int "parties" 1 (Spin.parties b)

let test_spin_barrier_rejects_nonpositive () =
  (match Spin.create 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for 0 parties");
  match Spin.create (-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for negative parties"

let suite =
  [
    ("pool runs all workers", `Quick, test_pool_runs_all_workers);
    ("pool multiple regions", `Quick, test_pool_multiple_regions);
    ("pool single worker", `Quick, test_pool_single_worker);
    ("with_pool value and cleanup", `Quick, test_with_pool_value_and_cleanup);
    ("run re-raises worker exception", `Quick, test_run_exception_rejoins);
    ("dynamic_for coverage", `Quick, test_dynamic_for_coverage);
    ("dynamic_for imbalanced", `Quick, test_dynamic_for_imbalanced);
    ("back-to-back regions", `Quick, test_back_to_back_regions);
    ("region after the workers park", `Quick, test_region_after_park);
    ("exception re-raised spinning and parked", `Quick,
     test_exception_spin_and_park);
    ("shutdown straight after a region", `Quick, test_shutdown_after_region);
    ("with_pool cleans up after a region", `Quick,
     test_with_pool_cleans_up_after_region);
    ("oversubscribed pool", `Quick, test_oversubscribed_pool);
    ("spin barrier phases", `Quick, test_spin_barrier_phases);
    ("spin barrier reusable", `Quick, test_spin_barrier_reusable);
    ("spin barrier single party", `Quick, test_spin_barrier_single_party);
    ("spin barrier rejects nonpositive", `Quick,
     test_spin_barrier_rejects_nonpositive);
  ]
