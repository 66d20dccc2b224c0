(* Layer probes: the per-layer metrics of every workload's traced run.

   Each probe is the median cost of one public call of one layer, timed
   call by call on the workload's own simulation requests and the
   programs they carry.  Every workload reports the same names, so a
   change to one layer shows on each workload whose inputs exercise it.
   The workload-specific breakdown (per kernel, per queue counter, per
   latency class) is printed beside them as detail.

   Probes run at the end of a workload, after every child process has
   been started, because they spawn domains. *)

open Common
module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Parse = Lf_front.Parse
module Dep = Lf_dep.Dep
module Derive = Lf_core.Derive
module Schedule = Lf_core.Schedule
module Native = Lf_native.Native
module Pool = Lf_parallel.Pool
module Spin_barrier = Lf_parallel.Spin_barrier
module Machine = Lf_machine.Machine
module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec
module Batch = Lf_batch.Batch
module Store = Batch.Store
module Queue = Lf_queue.Queue
module Sweep = Lf_queue.Sweep
module Wire = Lf_serve.Wire

let domains = 2

(* Bounds on the probed inputs, so the probes stay a small share of a
   traced run; requests and programs are taken in the workload's order. *)
let max_requests = 48
let max_programs = 6

(* Cheap calls are repeated so each median rests on enough samples. *)
let reps = 3

let take n l = List.filteri (fun i _ -> i < n) l

let distinct key l =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    l

(* Median seconds of one call of [f] over [xs], repeated [reps] times,
   each call timed alone ([prepare] runs untimed before it); the whole
   series is one span. *)
let per_call ?(reps = reps) ?(prepare = ignore) name xs f =
  let times = ref [] in
  ignore
    (Span.time ("probe." ^ name) (fun () ->
         for _ = 1 to reps do
           List.iter
             (fun x ->
               prepare x;
               let t0 = Span.now_ns () in
               ignore (Sys.opaque_identity (f x));
               times := Span.seconds_between t0 (Span.now_ns ()) :: !times)
             xs
         done));
  median (Array.of_list !times)

(* One Spin_barrier round across the pool's workers, in microseconds. *)
let barrier_us pool =
  let rounds = 20_000 in
  let bar = Spin_barrier.create (Pool.size pool) in
  let dt =
    Span.time "probe.parallel.barrier" (fun () ->
        Pool.run pool (fun _ ->
            for _ = 1 to rounds do
              Spin_barrier.wait bar
            done))
  in
  dt /. float_of_int rounds *. 1e6

(* The 2-domain schedules of a program: unfused always, fused at the
   §3.4 strip when the program admits it. *)
let native_schedules p =
  let unfused = Schedule.unfused ~nprocs:domains p in
  match
    Schedule.fused ~nprocs:domains
      ~strip:(Sweep.strip_for Machine.convex p)
      ~derive:(Derive.of_multigraph (Dep.build ~depth:1 p))
      p
  with
  | fused -> [ unfused; fused ]
  | exception _ -> [ unfused ]

let run ?pool (o : opts) (requests : Sim.request list) =
  let reqs = take max_requests requests in
  let progs =
    take max_programs
      (distinct Ir.program_to_string (List.map (fun r -> r.Sim.prog) requests))
  in
  let us s = s *. 1e6 in
  let texts = List.map Ir.program_to_string progs in
  let graphs = List.map (Dep.build ~depth:1) progs in
  (* front, dep, core, ir *)
  let parse = per_call "front.parse" texts Parse.program in
  let dep = per_call "dep.build" progs (Dep.build ~depth:1) in
  let derive = per_call "core.derive" graphs Derive.of_multigraph in
  let schedule = per_call "core.schedule" reqs Sim.schedule_of in
  let interp = per_call ~reps:1 "ir.interp" progs (fun p -> Interp.run p) in
  (* native and parallel *)
  let create = per_call ~reps:1 "native.create" progs (fun p -> Native.create p) in
  let runs =
    List.concat_map
      (fun p ->
        let bufs = Native.create p in
        List.map (fun s -> (bufs, s)) (native_schedules p))
      progs
  in
  let native_run, barrier =
    let go pool =
      let t =
        per_call "native.run_into" runs
          ~prepare:(fun (bufs, _) -> Native.reset bufs)
          (fun (bufs, s) -> Native.run_into ~pool bufs s)
      in
      (t, barrier_us pool)
    in
    match pool with Some p -> go p | None -> Pool.with_pool domains go
  in
  (* machine: each request simulated once, its result kept for the
     store and wire probes *)
  let digest = per_call "machine.digest" reqs Sim.digest in
  let eopts = Exec.opts ~jobs:1 () in
  let results = ref [] in
  let exec =
    per_call ~reps:1 "machine.exec" reqs (fun r ->
        results := (r, Exec.run_opts eopts r) :: !results)
  in
  let results = List.rev !results in
  (* batch store *)
  let store = Store.open_ ~dir:(fresh_dir o "probe-store") () in
  let lookup_miss = per_call ~reps:1 "batch.lookup_miss" reqs (Store.lookup store) in
  let store_add =
    per_call ~reps:1 "batch.store_add" results (fun (r, res) -> Store.add store r res)
  in
  let lookup_hit = per_call "batch.lookup_hit" reqs (Store.lookup store) in
  (* queue: every probed request enqueued into an empty queue and store,
     three times; per request *)
  let enqueue =
    per_call ~reps:1 "queue.enqueue" [ 0; 1; 2 ] (fun i ->
        let q = Queue.open_ ~dir:(fresh_dir o (Printf.sprintf "probe-queue%d" i)) in
        let empty =
          Store.open_ ~dir:(fresh_dir o (Printf.sprintf "probe-qstore%d" i)) ()
        in
        Queue.enqueue_misses q ~store:empty reqs)
    /. float_of_int (max 1 (List.length reqs))
  in
  (* wire, on these requests and their results *)
  let req_msgs = List.map (fun r -> Wire.Request { rid = 1; req = r }) reqs in
  let res_msgs =
    List.map
      (fun (_, res) ->
        Wire.Result { rid = 1; from_store = true; wall_s = 0.0; result = res })
      results
  in
  let req_payloads = List.map Wire.client_msg_to_payload req_msgs in
  let res_payloads = List.map Wire.server_msg_to_payload res_msgs in
  let req_encode = per_call "wire.req_encode" req_msgs Wire.client_msg_to_payload in
  let req_decode = per_call "wire.req_decode" req_payloads Wire.client_msg_of_payload in
  let res_encode = per_call "wire.res_encode" res_msgs Wire.server_msg_to_payload in
  let res_decode = per_call "wire.res_decode" res_payloads Wire.server_msg_of_payload in
  [
    ("front.parse_us", us parse, "us");
    ("dep.build_us", us dep, "us");
    ("core.derive_us", us derive, "us");
    ("core.schedule_us", us schedule, "us");
    ("ir.interp_us", us interp, "us");
    ("native.create_us", us create, "us");
    ("native.run_into_us", us native_run, "us");
    ("parallel.barrier_us", barrier, "us");
    ("machine.digest_us", us digest, "us");
    ("machine.exec_us", us exec, "us");
    ("batch.lookup_miss_us", us lookup_miss, "us");
    ("batch.store_add_us", us store_add, "us");
    ("batch.lookup_hit_us", us lookup_hit, "us");
    ("queue.enqueue_us", us enqueue, "us");
    ("wire.req_encode_us", us req_encode, "us");
    ("wire.req_decode_us", us req_decode, "us");
    ("wire.res_encode_us", us res_encode, "us");
    ("wire.res_decode_us", us res_decode, "us");
  ]
