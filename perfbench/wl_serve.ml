(* Workload `serve-mixed`: an `lfc serve` daemon (2 worker domains, its
   own temporary store) under a closed loop of 2 connections from this
   process, each sending its next request only after the reply, like
   `lfc request`.

   Set-up (repeated [passes] times, median kept) starts a daemon, waits
   for its first Pong and stores the warm set: the standard sweep mix
   at a small size, computed through the daemon itself.  Earlier
   daemons are drained away with SIGTERM; the last one serves the
   measured window.

   Traffic is pre-generated from the seed: in every block of ten
   requests one is a guaranteed miss and nine are zipf draws over the
   warm set.  A hit takes the fast path (wire -> digest -> store read);
   a miss takes DRR admission -> worker compute -> store write.  Each
   miss is the same simulation under a machine whose per-statement
   cost differs in the last bits, so every miss is absent from the
   store yet costs the same.

   Correctness: every served result must be bit-identical to a local
   computation of its request, and the daemon must drain to exit 0 on
   SIGTERM. *)

open Common
module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec
module Machine = Lf_machine.Machine
module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts
module Sweep = Lf_queue.Sweep
module Client = Lf_serve.Client
module Wire = Lf_serve.Wire

let connections = 2
let daemon_workers = 2
let passes = 5

let warm_set (o : opts) =
  let n = if o.quick then 24 else 32 in
  let seen = Hashtbl.create 64 in
  Sweep.mix ~nprocs:4 ~n ()
  |> List.filter (fun r ->
         let d = Sim.digest r in
         if Hashtbl.mem seen d then false
         else begin
           Hashtbl.add seen d ();
           true
         end)
  |> Array.of_list

(* The k-th guaranteed miss: fused LL18 on the Convex model with the
   per-statement cost nudged by k units of 2^-30.  Small enough that
   the two daemon workers are idle most of the time. *)
let miss_request (o : opts) =
  let p = Lf_kernels.Ll18.program ~n:(if o.quick then 24 else 40) () in
  let m = Machine.convex in
  let layout = Sweep.partitioned_layout m p and strip = Sweep.strip_for m p in
  fun k ->
    let machine =
      {
        m with
        Machine.cost =
          { m.Machine.cost with
            Machine.op = m.Machine.cost.Machine.op +. (float_of_int k *. 0x1p-30) };
      }
    in
    Sim.fused ~layout ~mode:Sim.Run_compressed ~machine ~nprocs:4 ~strip p

type kind = Hit | Miss

(* Per-connection traffic: 9 zipf hits and 1 miss per block of ten,
   the miss at a seeded position.  Zipf ranks follow the mix order for
   every seed: entries differ in canonical size, hence in hit cost, so
   a seeded ranking would move the hit latency between seeds. *)
let traffic (o : opts) warm ~len =
  let cdf = zipf_cdf (Array.length warm) in
  let miss = miss_request o in
  let base = 1 + (abs o.seed mod 1000 * 1_000_000) in
  Array.init connections (fun c ->
      let st = rng o.seed (10 + c) in
      let next_miss = ref 0 in
      let miss_at = ref 0 in
      Array.init len (fun i ->
          if i mod 10 = 0 then miss_at := i + Random.State.int st 10;
          if i = !miss_at then begin
            let k = base + (connections * !next_miss) + c in
            incr next_miss;
            (Miss, miss k)
          end
          else (Hit, warm.(zipf_draw cdf st))))

type daemon = { pid : int; socket : string; store_dir : string }

let start_daemon (o : opts) i =
  let dir = fresh_dir o (Printf.sprintf "d%d" i) in
  (* relative, short: sun_path holds about 100 bytes *)
  let socket = Filename.concat dir "s.sock" in
  let store_dir = Filename.concat dir "store" in
  let pid =
    spawn_lfc o
      ~stdout_file:(Filename.concat dir "serve.out")
      [ "serve"; "--socket"; socket; "--store-dir"; store_dir;
        "--workers"; string_of_int daemon_workers ]
  in
  { pid; socket; store_dir }

let connect_when_up d =
  let deadline = Span.deadline 30.0 in
  let rec go () =
    match Client.connect ~socket:d.socket () with
    | c when Client.ping c -> c
    | c ->
      Client.close c;
      retry ()
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    if Span.past deadline then
      failwith "serve-mixed: daemon never answered a ping"
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* SIGTERM must drain the daemon to exit 0. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait_exit d.pid = 0

type reply = {
  kind : kind;
  req : Sim.request;
  latency : float;  (* seconds, client side *)
  outcome : (Client.response, string) result;
  traced : bool;
}

(* Closed loop on one connection until the deadline. *)
let closed_loop ~socket ~deadline ~trace (reqs : (kind * Sim.request) array) =
  let c = Client.connect ~socket () in
  let out = ref [] in
  let i = ref 0 in
  while (not (Span.past deadline)) && !i < Array.length reqs do
    let kind, req = reqs.(!i) in
    let traced = trace && !i mod 2 = 0 in
    let t0 = Span.now_ns () in
    let outcome =
      if traced then
        fst
          (Span.timed ~rid:(!i + 1)
             (if kind = Hit then "serve.request.hit" else "serve.request.miss")
             (fun () -> Client.request_sync c ~rid:(!i + 1) req))
      else Client.request_sync c ~rid:(!i + 1) req
    in
    let latency = Span.seconds_between t0 (Span.now_ns ()) in
    out := { kind; req; latency; outcome; traced } :: !out;
    incr i
  done;
  Client.close c;
  List.rev !out

(* Store the warm set through the daemon, split over the connections. *)
let warm_up d warm =
  let parts =
    List.init connections (fun c ->
        Array.of_list
          (List.filteri (fun i _ -> i mod connections = c) (Array.to_list warm)))
  in
  let oks = Array.make connections 0 in
  let threads =
    List.mapi
      (fun c part ->
        Thread.create
          (fun () ->
            let cl = Client.connect ~socket:d.socket () in
            Array.iteri
              (fun i r ->
                match Client.request_sync cl ~rid:(i + 1) r with
                | Ok (Client.Served _) -> oks.(c) <- oks.(c) + 1
                | _ -> ())
              part;
            Client.close cl)
          ())
      parts
  in
  List.iter Thread.join threads;
  Array.fold_left ( + ) 0 oks

let run (o : opts) : outcome =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let warm = warm_set o in
  let reqs = traffic o warm ~len:50_000 in
  let gc0 = Gc.quick_stat () in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let attempted = ref 0 and failed = ref 0 in
  let live = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait_exit d.pid))
        !live)
  @@ fun () ->
  (* set-up, [passes] times *)
  let drains = ref [] in
  let hwm = ref 0 in
  let setups =
    List.init passes (fun i ->
        let (d, stored), dt =
          Span.timed "serve.setup" (fun () ->
              let d = start_daemon o i in
              live := d :: !live;
              Client.close (connect_when_up d);
              (d, warm_up d warm))
        in
        attempted := !attempted + Array.length warm;
        if stored <> Array.length warm then begin
          failed := !failed + (Array.length warm - stored);
          fail (Printf.sprintf "set-up %d stored %d of %d" i stored
                  (Array.length warm))
        end;
        if i < passes - 1 then begin
          live := List.filter (fun x -> x.pid <> d.pid) !live;
          hwm := max !hwm (vm_hwm_kib (string_of_int d.pid));
          drains := stop_daemon d :: !drains
        end;
        (d, dt))
  in
  let d, _ = List.nth setups (passes - 1) in
  (* the measured window *)
  let t0 = Span.now_ns () in
  let deadline = Span.deadline o.seconds in
  let results = Array.make connections [] in
  let threads =
    List.init connections (fun c ->
        Thread.create
          (fun () ->
            results.(c) <-
              closed_loop ~socket:d.socket ~deadline ~trace:o.trace reqs.(c))
          ())
  in
  List.iter Thread.join threads;
  let window = Span.seconds_between t0 (Span.now_ns ()) in
  let replies = List.concat (Array.to_list results) in
  (* idle-daemon probes *)
  let cl = Client.connect ~socket:d.socket () in
  let pings =
    Array.init 200 (fun _ ->
        let t = Span.now_ns () in
        ignore (Client.ping cl);
        Span.seconds_between t (Span.now_ns ()))
  in
  let server_stats =
    match Client.stats cl with Ok kvs -> kvs | Error _ -> []
  in
  Client.close cl;
  hwm := max !hwm (vm_hwm_kib (string_of_int d.pid));
  live := [];
  let drain_clean = List.for_all Fun.id (stop_daemon d :: !drains) in
  attempted := !attempted + passes;
  if not drain_clean then begin
    incr failed;
    fail "a daemon did not drain to exit 0 on SIGTERM"
  end;
  (* local recomputation of every distinct request served *)
  let served =
    List.filter_map
      (fun r ->
        match r.outcome with Ok (Client.Served s) -> Some (r, s) | _ -> None)
      replies
  in
  let distinct = Hashtbl.create 1024 in
  List.iter
    (fun (r, _) ->
      let dg = Sim.digest r.req in
      if not (Hashtbl.mem distinct dg) then Hashtbl.add distinct dg r.req)
    served;
  let local_reqs = Hashtbl.fold (fun dg r acc -> (dg, r) :: acc) distinct [] in
  let outcomes, _ =
    Batch.run_with
      (Run_opts.make ~jobs:2 ~store:Run_opts.Store_off ())
      (List.map snd local_reqs)
  in
  let local = Hashtbl.create 1024 in
  List.iteri
    (fun i (dg, _) ->
      match outcomes.(i).Batch.result with
      | Ok res -> Hashtbl.replace local dg (Wire.result_to_string res)
      | Error _ -> ())
    local_reqs;
  let mismatches =
    List.length
      (List.filter
         (fun (r, (s : Client.served)) ->
           Hashtbl.find_opt local (Sim.digest r.req)
           <> Some (Wire.result_to_string s.Client.result))
         served)
  in
  let count p = List.length (List.filter p replies) in
  let overloaded =
    count (fun r -> match r.outcome with Ok (Client.Overloaded _) -> true | _ -> false)
  and rejected =
    count (fun r -> match r.outcome with Ok (Client.Rejected _) -> true | _ -> false)
  and errors = count (fun r -> match r.outcome with Error _ -> true | _ -> false) in
  attempted := !attempted + List.length replies;
  failed := !failed + overloaded + rejected + errors + mismatches;
  if mismatches > 0 then
    fail (Printf.sprintf "%d served result(s) differ from local computation"
            mismatches);
  if overloaded + rejected + errors > 0 then
    fail (Printf.sprintf "%d overloaded, %d rejected, %d transport errors"
            overloaded rejected errors);
  let lat kind =
    Array.of_list
      (List.filter_map
         (fun (r, _) -> if r.kind = kind then Some r.latency else None)
         served)
  in
  let hits = lat Hit and misses = lat Miss in
  let ms x = x *. 1e3 in
  let rps = float_of_int (List.length served) /. window in
  let gc = gc_metrics gc0 in
  let metrics =
    if not o.trace then
      [
        ("setup_s", median (Array.of_list (List.map snd setups)), "s");
        ("peak_rss_mb", float_of_int !hwm /. 1024.0, "MiB");
        ("op_ms", ms (geomean [ median hits; median misses ]), "ms");
        ("ops_per_s", rps, "1/s");
      ]
    else begin
      let hit_latency traced =
        Array.of_list
          (List.filter_map
             (fun (r, _) ->
               if r.kind = Hit && r.traced = traced then Some r.latency else None)
             served)
      in
      let miss = miss_request o in
      Probe.run o (List.init 8 (fun k -> miss (k + 1)) @ Array.to_list warm)
      @ gc
      @ [
          ( "trace.overhead_frac",
            (median (hit_latency true) /. median (hit_latency false)) -. 1.0,
            "frac" );
        ]
    end
  in
  let detail =
    [
      ("serve_rps", rps, "req/s");
      ("serve_hit_p50_ms", ms (median hits), "ms");
      ("serve_hit_p99_ms", ms (quantile 0.99 hits), "ms");
      ("serve_miss_p50_ms", ms (median misses), "ms");
      ("serve_miss_p90_ms", ms (quantile 0.90 misses), "ms");
    ]
    @
    if not o.trace then []
    else begin
      let miss_served = List.filter (fun (r, _) -> r.kind = Miss) served in
      let wall =
        Array.of_list (List.map (fun (_, s) -> s.Client.wall_s) miss_served)
      and wait =
        Array.of_list
          (List.map (fun (r, s) -> r.latency -. s.Client.wall_s) miss_served)
      in
      let from_store =
        List.length (List.filter (fun (_, s) -> s.Client.from_store) served)
      in
      [
        ( "serve.hit_ratio",
          float_of_int from_store /. float_of_int (max 1 (List.length served)),
          "ratio" );
        ("serve.overloaded", float_of_int overloaded, "count");
        ("serve.rejected", float_of_int rejected, "count");
        ("serve.errors", float_of_int errors, "count");
        ("serve.drain_clean", (if drain_clean then 1.0 else 0.0), "bool");
        ("serve.miss_wait_ms", ms (median wait), "ms");
        ("serve.miss_compute_ms", ms (median wall), "ms");
        ("serve.ping_us", median pings *. 1e6, "us");
      ]
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    detail;
    report =
      host_report o (host_caches ())
      @ [
          ("connections", Int connections);
          ("loop", Str "closed: next request only after the reply");
          ("daemon_workers", Int daemon_workers);
          ("setup_passes", Int passes);
          ("setup_s_samples", List (List.map (fun (_, t) -> Num t) setups));
          ("warm_set", Int (Array.length warm));
          ("window_s", Num window);
          ("replies", Int (List.length replies));
          ("hits", Int (Array.length hits));
          ("misses", Int (Array.length misses));
          ("hit_samples_beyond_p99", Int (beyond 0.99 hits));
          ("miss_samples_beyond_p90", Int (beyond 0.90 misses));
          ( "server_stats",
            Obj (List.map (fun (k, v) -> (k, Int v)) server_stats) );
          ("failures", List (List.map (fun s -> Str s) !failures));
        ];
  }
