(* The multi-process work queue (lf_queue).

   Contracts under test:
   - enqueue_misses is a set difference: store hits are skipped,
     duplicates collapse, repeats land in e_queued_before, terminal
     failures are never retried;
   - draining N workers — in-process domains or forked processes —
     leaves the store bit-identical to a serial Batch.run_with of the
     same mix (the queue moves work, never changes it);
   - a worker that dies mid-task loses its lease after the ttl and the
     task is re-run by someone else; a stolen lease re-publishing an
     identical entry is harmless (content-addressed idempotence);
   - a task whose computation raises is terminal: recorded under
     failed/, reported by failures, refused by later enqueues;
   - the shared fingerprint file round-trips the enqueuer's view. *)

module Ir = Lf_ir.Ir
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch
module Store = Lf_batch.Batch.Store
module Run_opts = Lf_batch.Run_opts
module Queue = Lf_queue.Queue
module Sweep = Lf_queue.Sweep

open QCheck

(* A test's store and queue, in its scratch directory [dir]. *)
let store_in dir = Store.open_ ~dir:(Filename.concat dir "store") ()
let queue_in dir = Queue.open_ ~dir:(Filename.concat dir "q")

(* A small, fast, all-legal request mix (Run_compressed + Miss_only). *)
let mini_mix ?(n = 24) () =
  Sweep.mix ~kernels:[ "ll18"; "jacobi" ] ~machines:[ Machine.convex ]
    ~nprocs:2 ~n ()

let results_identical = Tutil.results_identical

(* In-process workers compute serially, like the reference below. *)
let serial = Run_opts.make ~jobs:1 ()

(* Serial reference: compute [reqs] inline (jobs=1) into a fresh store
   in [dir] and return it. *)
let serial_store dir reqs =
  let store = Store.open_ ~dir:(Filename.concat dir "reference") () in
  let _, summary =
    Batch.run_with
      (Run_opts.with_store (Store_in (Some (Store.dir store))) serial)
      reqs
  in
  Alcotest.(check int) "serial reference all computed" 0 summary.Batch.failed;
  store

let store_matches ~reference store reqs =
  List.for_all
    (fun r ->
      match (Store.lookup reference r, Store.lookup store r) with
      | Some a, Some b -> results_identical a b
      | _ -> false)
    reqs

(* ------------------------------------------------------------------ *)
(* Enqueue semantics                                                   *)

let test_enqueue_misses () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = store_in dir in
  let q = queue_in dir in
  let reqs = mini_mix () in
  let warm = List.hd reqs in
  (* pre-warm one entry: it must be skipped as a hit *)
  ignore (Store.add store warm (Exec.run_opts Exec.default_opts warm));
  let st = Queue.enqueue_misses q ~store (reqs @ [ warm ]) in
  let unique =
    List.length
      (List.sort_uniq compare (List.map Sim.digest (reqs @ [ warm ])))
  in
  Alcotest.(check int) "unique digests" unique st.Queue.e_unique;
  Alcotest.(check int) "warm entry skipped" 1 st.Queue.e_hits;
  Alcotest.(check int) "everything else enqueued" (unique - 1)
    st.Queue.e_enqueued;
  Alcotest.(check int) "pending matches" (unique - 1)
    (Queue.status q).Queue.pending;
  (* a second enqueue of the same mix is all repeats *)
  let st2 = Queue.enqueue_misses q ~store reqs in
  Alcotest.(check int) "nothing re-enqueued" 0 st2.Queue.e_enqueued;
  Alcotest.(check int) "repeats counted" (unique - 1)
    st2.Queue.e_queued_before

(* QCheck: over random sub-mixes, the enqueue outcome counts always
   partition e_unique, and a single drain makes the store answer every
   request bit-identically to the serial reference. *)
let prop_enqueue_drain =
  Test.make ~count:8 ~name:"enqueue partitions unique; drain answers all"
    (make
       ~print:(fun (a, b) -> Printf.sprintf "take=%d n=%d" a b)
       Gen.(pair (int_range 1 8) (int_range 24 28)))
    (fun (take, n) ->
      Tutil.with_temp_dir @@ fun dir ->
      let all = mini_mix ~n () in
      let reqs = List.filteri (fun i _ -> i < take) all in
      let store = store_in dir in
      let q = queue_in dir in
      let st = Queue.enqueue_misses q ~store reqs in
      if
        st.Queue.e_hits + st.Queue.e_enqueued + st.Queue.e_queued_before
        + st.Queue.e_failed_before
        <> st.Queue.e_unique
      then Test.fail_report "outcome counts do not partition e_unique";
      let ws = Queue.worker ~wid:"prop" ~opts:serial ~store q in
      if ws.Queue.w_failed > 0 then Test.fail_report "drain failed";
      let reference = serial_store dir reqs in
      if not (store_matches ~reference store reqs) then
        Test.fail_report "drained store differs from serial reference";
      true)

(* ------------------------------------------------------------------ *)
(* Parallel drains: domains and forked processes                       *)

let test_domain_workers_identical () =
  Tutil.with_temp_dir @@ fun dir ->
  let reqs = mini_mix () in
  let reference = serial_store dir reqs in
  let store = store_in dir in
  let q = queue_in dir in
  ignore (Queue.enqueue_misses q ~store reqs);
  let workers =
    Array.init 3 (fun i ->
        Domain.spawn (fun () ->
            Queue.worker ~wid:(Printf.sprintf "d%d" i) ~opts:serial ~store q))
  in
  let stats = Array.map Domain.join workers in
  Alcotest.(check int) "no worker failures" 0
    (Array.fold_left (fun a s -> a + s.Queue.w_failed) 0 stats);
  let st = Queue.status q in
  Alcotest.(check int) "drained: no pending" 0 st.Queue.pending;
  Alcotest.(check int) "drained: no leases" 0 st.Queue.leased;
  Alcotest.(check bool) "domain drain bit-identical to serial" true
    (store_matches ~reference store reqs);
  (* every task was claimed by exactly one worker *)
  let claimed =
    Array.fold_left (fun a s -> a + s.Queue.w_claimed) 0 stats
  in
  let unique = List.length (List.sort_uniq compare (List.map Sim.digest reqs)) in
  Alcotest.(check int) "claims cover the mix exactly once" unique claimed

(* Separate worker *processes*, via the real CLI binary.  (Raw
   Unix.fork is off the table inside this test binary: OCaml 5 forbids
   it once any domain has ever been spawned, and earlier tests spawn
   plenty.  create_process is spawn-based and exempt — and launching
   [lfc worker] also covers the CLI wiring.) *)
let test_worker_processes_identical () =
  (* cwd is _build/default/test under `dune runtest`, the project root
     under `dune exec test/test_main.exe` *)
  match
    List.find_opt Sys.file_exists
      [ "../bin/lfc.exe"; "_build/default/bin/lfc.exe" ]
  with
  | None -> Alcotest.skip ()
  | Some lfc ->
    Tutil.with_temp_dir @@ fun dir ->
    let reqs = mini_mix () in
    let reference = serial_store dir reqs in
    let store_dir = Filename.concat dir "store" in
    let store = Store.open_ ~dir:store_dir () in
    let queue_dir = Filename.concat dir "q" in
    let q = Queue.open_ ~dir:queue_dir in
    ignore (Queue.enqueue_misses q ~store reqs);
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pids =
      List.init 2 (fun i ->
          Unix.create_process lfc
            [|
              "lfc"; "worker"; "--queue"; queue_dir; "--store-dir"; store_dir;
              "--wid"; Printf.sprintf "p%d" i; "--jobs"; "1";
            |]
            Unix.stdin devnull Unix.stderr)
    in
    Unix.close devnull;
    List.iter
      (fun pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "worker process exited nonzero")
      pids;
    let st = Queue.status q in
    Alcotest.(check int) "drained: no pending" 0 st.Queue.pending;
    Alcotest.(check int) "drained: no leases" 0 st.Queue.leased;
    Alcotest.(check int) "no failures" 0 st.Queue.failed;
    Alcotest.(check bool) "worker-process drain bit-identical to serial" true
      (store_matches ~reference store reqs)

(* ------------------------------------------------------------------ *)
(* Lease lifecycle                                                     *)

let expire lease_path =
  let past = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes lease_path past past

let test_dead_worker_reclaim () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = store_in dir in
  let q = queue_in dir in
  let reqs = [ List.hd (mini_mix ()) ] in
  ignore (Queue.enqueue_misses q ~store reqs);
  (* a worker claims, then dies: the lease stops heartbeating *)
  (match Queue.claim ~wid:"dead" q with
  | None -> Alcotest.fail "claim found nothing"
  | Some (_, _, lease) ->
    Alcotest.(check int) "claimed: one lease" 1 (Queue.status q).Queue.leased;
    (* a live lease is never stolen *)
    Alcotest.(check int) "fresh lease not reclaimed" 0
      (Queue.reclaim_expired ~ttl:60.0 q);
    expire lease);
  Alcotest.(check int) "expired lease reclaimed" 1
    (Queue.reclaim_expired ~ttl:60.0 q);
  Alcotest.(check int) "task pending again" 1 (Queue.status q).Queue.pending;
  (* a draining worker now completes the stolen task *)
  let ws = Queue.worker ~wid:"rescuer" ~opts:serial ~store q in
  Alcotest.(check int) "rescuer computed it" 1 ws.Queue.w_computed;
  Alcotest.(check bool) "store answers" true
    (Store.lookup store (List.hd reqs) <> None)

(* Double compute after a steal: both the thief and the original owner
   publish; content addressing makes the second publish a byte-
   identical overwrite, and completing a vanished lease is tolerated. *)
let test_steal_idempotent () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = store_in dir in
  let q = queue_in dir in
  let req = List.hd (mini_mix ()) in
  ignore (Queue.enqueue_misses q ~store [ req ]);
  let _, _, lease_a =
    match Queue.claim ~wid:"a" q with
    | Some c -> c
    | None -> Alcotest.fail "claim a found nothing"
  in
  expire lease_a;
  Alcotest.(check int) "stolen" 1 (Queue.reclaim_expired ~ttl:60.0 q);
  (* thief b claims and completes *)
  let ws = Queue.worker ~wid:"b" ~opts:serial ~store q in
  Alcotest.(check int) "b computed" 1 ws.Queue.w_computed;
  let first =
    match Store.lookup store req with
    | Some r -> r
    | None -> Alcotest.fail "b did not publish"
  in
  (* the original owner finishes late: recomputes, republishes, tries
     to complete its long-gone lease *)
  ignore
    (Batch.run_one_with
       (Run_opts.make ~store:(Store_cold (Some (Store.dir store))) ())
       req);
  (match try Sys.remove lease_a; `Removed with Sys_error _ -> `Gone with
  | `Removed -> Alcotest.fail "stolen lease still existed"
  | `Gone -> ());
  (match Store.lookup store req with
  | Some r ->
    Alcotest.(check bool) "republish is bit-identical" true
      (results_identical first r)
  | None -> Alcotest.fail "entry vanished after republish");
  Alcotest.(check int) "exactly one entry" 1 (Store.stats store).Store.entries;
  let st = Queue.status q in
  Alcotest.(check int) "queue drained" 0 (st.Queue.pending + st.Queue.leased);
  (* warm now: nothing to enqueue *)
  let es = Queue.enqueue_misses q ~store [ req ] in
  Alcotest.(check int) "warm: store hit" 1 es.Queue.e_hits;
  Alcotest.(check int) "warm: nothing enqueued" 0 es.Queue.e_enqueued

(* ------------------------------------------------------------------ *)
(* Terminal failures                                                   *)

let test_failed_task_terminal () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = store_in dir in
  let q = queue_in dir in
  (* 9 processors on an 8-iteration space: Schedule.unfused raises at
     compute time, after the digest admitted the task *)
  let p = Tutil.chain_program ~lo:1 ~hi:8 [ [ 0 ]; [ 0 ] ] in
  let bad =
    Sim.unfused
      ~layout:(Partition.contiguous p.Ir.decls)
      ~mode:Sim.Run_compressed ~machine:Machine.convex ~nprocs:9 p
  in
  let st = Queue.enqueue_misses q ~store [ bad ] in
  Alcotest.(check int) "enqueued" 1 st.Queue.e_enqueued;
  let ws = Queue.worker ~wid:"w" ~opts:serial ~store q in
  Alcotest.(check int) "failed" 1 ws.Queue.w_failed;
  Alcotest.(check int) "computed none" 0 ws.Queue.w_computed;
  let qs = Queue.status q in
  Alcotest.(check int) "terminal, not pending" 0 qs.Queue.pending;
  Alcotest.(check int) "recorded under failed/" 1 qs.Queue.failed;
  (match Queue.failures q with
  | [ (digest, reason) ] ->
    Alcotest.(check string) "failure filed under the digest"
      (Sim.digest bad) digest;
    Alcotest.(check bool) "failure carries a reason" true
      (String.length reason > 0)
  | l -> Alcotest.failf "expected one failure, got %d" (List.length l));
  (* never retried *)
  (match Queue.enqueue q bad with
  | `Already_failed -> ()
  | _ -> Alcotest.fail "terminal failure was re-enqueued");
  let st2 = Queue.enqueue_misses q ~store [ bad ] in
  Alcotest.(check int) "enqueue_misses skips it" 1 st2.Queue.e_failed_before

(* A worker returns as soon as its loop ends: stopping the heartbeat
   wakes its thread instead of waiting out a ttl/4 sleep, 10 s here. *)
let test_worker_returns_promptly () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = store_in dir in
  let q = queue_in dir in
  let t0 = Unix.gettimeofday () in
  let ws = Queue.worker ~wid:"idle" ~ttl:40. ~opts:serial ~store q in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "claimed nothing" 0 ws.Queue.w_claimed;
  if dt >= 2.0 then
    Alcotest.failf "a worker on an empty queue took %.2f s to return" dt

(* ------------------------------------------------------------------ *)
(* Shared fingerprint view                                             *)

let test_fingerprint_file_roundtrip () =
  Tutil.with_temp_dir @@ fun dir ->
  Sim.Fingerprint.clear_overrides ();
  (match Sim.Fingerprint.set_override "derive" "queue-test-2" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let view = Sim.Fingerprint.all () in
  let path = Filename.concat dir "fingerprint" in
  Sim.Fingerprint.save_file path;
  Sim.Fingerprint.clear_overrides ();
  Alcotest.(check bool) "overrides cleared" true
    (Sim.Fingerprint.value "derive" <> "queue-test-2");
  (match Sim.Fingerprint.load_file path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "load restores the saved view" true
    (Sim.Fingerprint.all () = view);
  Alcotest.(check string) "override survives the round trip" "queue-test-2"
    (Sim.Fingerprint.value "derive");
  Sim.Fingerprint.clear_overrides ();
  Sys.remove path;
  (* a corrupt file is an error, not a partial install *)
  let oc = open_out path in
  output_string oc "not a fingerprint file\n";
  close_out oc;
  (match Sim.Fingerprint.load_file path with
  | Error _ -> ()
  | Ok () ->
    Sim.Fingerprint.clear_overrides ();
    Alcotest.fail "garbage fingerprint file accepted");
  Sys.remove path;
  (* enqueue_misses publishes the enqueuer's view into the queue dir *)
  let store = store_in dir in
  let q = queue_in dir in
  ignore (Queue.enqueue_misses q ~store [ List.hd (mini_mix ()) ]);
  Alcotest.(check bool) "queue carries a fingerprint file" true
    (Sys.file_exists (Queue.fingerprint_file q));
  match Sim.Fingerprint.load_file (Queue.fingerprint_file q) with
  | Ok () -> Sim.Fingerprint.clear_overrides ()
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "enqueue_misses set semantics" `Quick
      test_enqueue_misses;
    Tutil.to_alcotest prop_enqueue_drain;
    Alcotest.test_case "3 domain workers bit-identical to serial" `Quick
      test_domain_workers_identical;
    Alcotest.test_case "2 worker processes bit-identical to serial" `Quick
      test_worker_processes_identical;
    Alcotest.test_case "dead worker lease reclaim" `Quick
      test_dead_worker_reclaim;
    Alcotest.test_case "lease steal is idempotent" `Quick
      test_steal_idempotent;
    Alcotest.test_case "failed task is terminal" `Quick
      test_failed_task_terminal;
    Alcotest.test_case "fingerprint file round trip" `Quick
      test_fingerprint_file_roundtrip;
    Alcotest.test_case "worker returns when its queue drains" `Quick
      test_worker_returns_promptly;
  ]
