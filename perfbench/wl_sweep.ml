(* Workload `sweep-cold`: the standard Lf_queue.Sweep.mix (6 kernels x
   {KSR2, Convex} x both pure engine tiers x {fused, unfused},
   nprocs 4) at a few seeded problem sizes, drained through the
   filesystem work queue by 2 `lfc worker` processes into an empty
   store, the way `lfc sweep --workers 2` drains it.

   Each repetition builds the mix and fresh store and queue
   directories (set-up), enqueues every miss, starts the workers and
   waits until Queue.wait reports the queue drained.  Correctness: the
   hash of every drained entry's observables must equal the value the
   benchmark keeps (Expected.sweep), and a serial in-process
   Batch.run_with of the same requests must reproduce it.

   The workers' layers run in other processes; the traced run's layer
   probes time them in-process on the same tasks. *)

open Common
module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec
module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts
module Store = Batch.Store
module Queue = Lf_queue.Queue
module Sweep = Lf_queue.Sweep

let nprocs = 4
let workers = 2

(* The workers' lease ttl in seconds.  A worker joins its heartbeat
   thread, which sleeps ttl/4, before it exits: at the default 10 s
   every sweep would idle 2.5 s after its drain, leaving fewer sweeps
   in a run. *)
let ttl = "2"

(* Three sizes symmetric around a centre: the seed picks the spread,
   and the total simulated work (~ sum of n^2) moves by under 1%
   between seeds.  The centre keeps one cold sweep near two seconds on
   2 workers, so a run holds several sweeps. *)
let sizes_of (o : opts) =
  let centre, step = if o.quick then (40, 2) else (112, 2) in
  let d = step * (2 + (abs o.seed mod 4)) in
  [ centre - d; centre; centre + d ]

let build_mix sizes =
  List.concat_map (fun n -> Sweep.mix ~nprocs ~n ()) sizes

(* Unique requests in digest order. *)
let unique mix =
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun r ->
      let d = Sim.digest r in
      if Hashtbl.mem seen d then None
      else begin
        Hashtbl.add seen d ();
        Some (d, r)
      end)
    mix
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Hash of the observables of every entry, in digest order: cycles as
   IEEE bits, refs, misses, cold misses, TLB misses, per-processor
   misses. *)
let observables_hash (entries : (string * Exec.result) list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (d, (r : Exec.result)) ->
      Buffer.add_string b
        (Printf.sprintf "%s %Lx %d %d %d %d [%s]\n" d
           (Int64.bits_of_float r.Exec.cycles)
           r.Exec.total_refs r.Exec.total_misses r.Exec.cold_misses
           r.Exec.tlb_misses
           (String.concat ","
              (Array.to_list (Array.map string_of_int r.Exec.proc_misses)))))
    entries;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* `lfc worker --json` prints one object of integer fields. *)
let json_int_field text key =
  let pat = Printf.sprintf "\"%s\": " key in
  let lp = String.length pat and lt = String.length text in
  let rec find i =
    if i + lp > lt then None
    else if String.sub text i lp = pat then begin
      let j = ref (i + lp) in
      while !j < lt && (text.[!j] = '-' || (text.[!j] >= '0' && text.[!j] <= '9')) do
        incr j
      done;
      int_of_string_opt (String.sub text (i + lp) (!j - i - lp))
    end
    else find (i + 1)
  in
  find 0

type sweep = {
  setup_s : float;
  enqueue_s : float;
  drain_s : float;  (* workers started -> Queue.wait says drained *)
  total_s : float;  (* enqueue -> drained: one cold sweep *)
  stats : (string * int) list;  (* worker counters, summed *)
  missing : int;  (* unique requests absent from the store after *)
  worker_failures : int;  (* nonzero exits and terminal task failures *)
  hash : string;
  traced : bool;
}

let stat_keys = [ "claimed"; "computed"; "failed"; "reclaimed" ]

(* Set-ups done on their own besides the one before each sweep, so the
   set-up median rests on enough samples even when few sweeps fit. *)
let setup_passes = 15

(* Set-up: the mix, a fresh store and a fresh queue under [name]. *)
let set_up (o : opts) name sizes =
  Span.timed "sweep.setup" (fun () ->
      let mix = build_mix sizes in
      let sdir = fresh_dir o (name ^ "/store") in
      let qdir = fresh_dir o (name ^ "/queue") in
      (mix, Store.open_ ~dir:sdir (), Queue.open_ ~dir:qdir))

let one_sweep (o : opts) ~rep ~sizes ~traced ~hwm =
  let tracing = !Span.enabled in
  Span.enabled := tracing && traced;
  let (mix, store, q), setup_s =
    set_up o (Printf.sprintf "sweep%d" rep) sizes
  in
  let _enq, enqueue_s =
    Span.timed "queue.enqueue" (fun () -> Queue.enqueue_misses q ~store mix)
  in
  let outs =
    List.init workers (fun i ->
        Filename.concat o.tmp (Printf.sprintf "sweep%d/worker%d.json" rep i))
  in
  let pids, drain_s =
    Span.timed "queue.drain" (fun () ->
        let pids =
          List.mapi
            (fun i out ->
              spawn_lfc o ~stdout_file:out
                [ "worker"; "--queue"; Queue.dir q; "--store-dir"; Store.dir store;
                  "--wid"; Printf.sprintf "bench%d" i; "--ttl"; ttl; "--json" ])
            outs
        in
        (* Queue.wait in short slices, sampling the workers' peak
           resident sets in between (they exit on their own) *)
        let give_up = Span.deadline 150.0 in
        let sample () =
          List.iter
            (fun pid -> hwm := max !hwm (vm_hwm_kib (string_of_int pid)))
            pids
        in
        let rec wait () =
          match Queue.wait ~timeout_s:0.25 q with
          | `Drained -> sample ()
          | `Timeout when Span.past give_up ->
            prerr_endline "sweep-cold: queue did not drain";
            List.iter
              (fun pid ->
                try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
              pids
          | `Timeout ->
            sample ();
            wait ()
        in
        wait ();
        pids)
  in
  (* Each worker joins its heartbeat thread before exiting, which takes
     up to ttl/4 after the drain; the exit is waited for untimed. *)
  let bad_exits =
    List.length (List.filter (fun pid -> wait_exit pid <> 0) pids)
  in
  Span.enabled := tracing;
  let texts = List.map (fun f -> Option.value (read_file f) ~default:"") outs in
  let stats =
    List.map
      (fun k ->
        ( k,
          List.fold_left
            (fun acc t -> acc + Option.value (json_int_field t k) ~default:0)
            0 texts ))
      stat_keys
  in
  let entries =
    List.filter_map
      (fun (d, r) -> Option.map (fun res -> (d, res)) (Store.lookup store r))
      (unique mix)
  in
  let qs = Queue.status q in
  {
    setup_s;
    enqueue_s;
    drain_s;
    total_s = enqueue_s +. drain_s;
    stats;
    missing = List.length (unique mix) - List.length entries;
    worker_failures = qs.Queue.failed + bad_exits;
    hash = observables_hash entries;
    traced;
  }

let run (o : opts) : outcome =
  let sizes = sizes_of o in
  let reqs = unique (build_mix sizes) in
  let ntasks = List.length reqs in
  let expected = Expected.sweep sizes in
  let gc0 = Gc.quick_stat () in
  let deadline = Span.deadline o.seconds in
  let min_reps = if o.trace then 2 else 3 in
  let hwm = ref 0 in
  let setups =
    List.init setup_passes (fun i ->
        let name = Printf.sprintf "setup%d" i in
        let _, dt = set_up o name sizes in
        rm_rf (Filename.concat o.tmp name);
        dt)
  in
  let rec loop rep acc =
    if rep >= min_reps && Span.past deadline then List.rev acc
    else
      let s = one_sweep o ~rep ~sizes ~traced:(rep mod 2 = 1) ~hwm in
      (* each repetition's directories go as soon as it is checked *)
      rm_rf (Filename.concat o.tmp (Printf.sprintf "sweep%d" rep));
      loop (rep + 1) (s :: acc)
  in
  let sweeps = loop 0 [] in
  (* serial in-process reference: no store, one domain *)
  let outcomes, serial_summary =
    Batch.run_with
      (Run_opts.make ~jobs:1 ~store:Run_opts.Store_off ())
      (List.map snd reqs)
  in
  let serial =
    List.map2
      (fun (d, _) (oc : Batch.outcome) ->
        match oc.Batch.result with
        | Ok r -> Some (d, r)
        | Error _ -> None)
      reqs (Array.to_list outcomes)
  in
  let serial_ok = List.for_all Option.is_some serial in
  let serial_results = List.filter_map Fun.id serial in
  let serial_hash = observables_hash serial_results in
  let reference = Option.value expected ~default:serial_hash in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  if not serial_ok then fail "serial Batch.run_with: a request failed";
  if serial_hash <> reference then
    fail
      (Printf.sprintf "serial hash %s differs from the kept value %s"
         serial_hash reference);
  let failed_tasks = ref 0 in
  List.iteri
    (fun i s ->
      failed_tasks := !failed_tasks + s.missing + s.worker_failures;
      if s.hash <> reference then
        fail (Printf.sprintf "sweep %d: observables hash %s, expected %s" i
                s.hash reference))
    sweeps;
  if !failed_tasks > 0 then
    fail (Printf.sprintf "%d task(s) missing or failed" !failed_tasks);
  let attempted = (List.length sweeps * (ntasks + 1)) + 1 in
  let failed =
    !failed_tasks
    + List.length (List.filter (fun s -> s.hash <> reference) sweeps)
    + (if serial_ok && serial_hash = reference then 0 else 1)
  in
  let medf f l = median (Array.of_list (List.map f l)) in
  let sweep_cold_s = medf (fun s -> s.total_s) sweeps in
  let gc = gc_metrics gc0 in
  let metrics =
    if not o.trace then
      [
        ( "setup_s",
          median (Array.of_list (setups @ List.map (fun s -> s.setup_s) sweeps)),
          "s" );
        ( "peak_rss_mb",
          float_of_int (max !hwm (vm_hwm_kib "self")) /. 1024.0,
          "MiB" );
        ("op_ms", 1e3 *. sweep_cold_s, "ms");
        ("ops_per_s", float_of_int ntasks /. sweep_cold_s, "1/s");
      ]
    else begin
      let traced = List.filter (fun s -> s.traced) sweeps
      and untraced = List.filter (fun s -> not s.traced) sweeps in
      Probe.run o (List.map snd reqs)
      @ gc
      @ [
          ( "trace.overhead_frac",
            medf (fun s -> s.total_s) traced
            /. medf (fun s -> s.total_s) untraced
            -. 1.0,
            "frac" );
        ]
    end
  in
  let detail =
    ("sweep_cold_s", sweep_cold_s, "s")
    ::
    (if not o.trace then []
     else begin
       let stat k =
         medf (fun s -> float_of_int (List.assoc k s.stats)) sweeps
       in
       let total f =
         List.fold_left (fun acc (_, r) -> acc + f r) 0 serial_results
       in
       let drain_s = medf (fun s -> s.drain_s) sweeps in
       [
         ("queue.enqueue_s", medf (fun s -> s.enqueue_s) sweeps, "s");
         ("queue.drain_s", drain_s, "s");
         (* what the drain costs beyond the serial compute split over
            the workers: polling, protocol and imbalance *)
         ( "queue.overhead_s",
           drain_s -. (serial_summary.Batch.wall_s /. float_of_int workers),
           "s" );
         ("queue.claimed", stat "claimed", "count");
         ("queue.computed", stat "computed", "count");
         ("queue.failed", stat "failed", "count");
         ("queue.reclaimed", stat "reclaimed", "count");
         ( "queue.useful_ratio",
           float_of_int ntasks /. Float.max 1.0 (stat "computed"),
           "ratio" );
         ( "machine.sim_refs",
           float_of_int (total (fun r -> r.Exec.total_refs)),
           "count" );
         ( "machine.sim_misses",
           float_of_int (total (fun r -> r.Exec.total_misses)),
           "count" );
       ]
     end)
  in
  {
    attempted;
    failed;
    metrics;
    detail;
    report =
      host_report o (host_caches ())
      @ [
          ("sizes", List (List.map (fun n -> Int n) sizes));
          ("nprocs", Int nprocs);
          ("workers", Int workers);
          ("worker_ttl_s", Str ttl);
          ("unique_tasks", Int ntasks);
          ("sweeps", Int (List.length sweeps));
          ( "sweep_cold_s_samples",
            List (List.map (fun s -> Num s.total_s) sweeps) );
          ("observables_hash", Str serial_hash);
          ( "hash_reference",
            Str (if expected = None then "serial run (no kept value)" else "kept") );
          ("serial_batch_wall_s", Num serial_summary.Batch.wall_s);
          ( "serial_task_max_s",
            Num
              (Array.fold_left
                 (fun acc (oc : Batch.outcome) -> Float.max acc oc.Batch.wall_s)
                 0.0 outcomes) );
          ("failures", List (List.map (fun s -> Str s) !failures));
        ];
  }

(* Offline: the observables hash for every seeded size set, printed as
   entries for Expected.sweep. *)
let record_expected (o : opts) =
  List.iter
    (fun seed ->
      let sizes = sizes_of { o with seed } in
      let reqs = unique (build_mix sizes) in
      let outcomes, _ =
        Batch.run_with
          (Run_opts.make ~jobs:1 ~store:Run_opts.Store_off ())
          (List.map snd reqs)
      in
      let results =
        List.map2
          (fun (d, _) (oc : Batch.outcome) ->
            match oc.Batch.result with
            | Ok r -> (d, r)
            | Error _ -> failwith "record-expected: a sweep request failed")
          reqs (Array.to_list outcomes)
      in
      Printf.printf "    ([%s], %S);\n%!"
        (String.concat "; " (List.map string_of_int sizes))
        (observables_hash results))
    [ 0; 1; 2; 3 ]
