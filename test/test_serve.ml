(* The simulation service (lf_serve): wire codecs, admission queue,
   counter scopes, and a live in-process server.

   Contracts under test:
   - the wire codecs round-trip every message bit-exactly (requests via
     the canonical text the store digests; results and progress floats
     via their IEEE-754 bit patterns) and reject truncated or mutated
     payloads without exceptions — a QCheck property over the paper's
     kernel grid including Explicit/derive variants;
   - malformed payloads and broken frames never take the server down:
     the offending connection gets a Rejected (or is dropped), and the
     next connection is served normally;
   - results served over the socket are bit-identical to a local
     Exec.run_opts of the same request, for concurrent clients on
     separate domains;
   - a saturating burst is answered with Overloaded, not an unbounded
     queue, and the DRR scheduler interleaves a one-job client with a
     flooding one instead of starving it. *)

module Ir = Lf_ir.Ir
module Schedule = Lf_core.Schedule
module Derive = Lf_core.Derive
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch
module Cache = Lf_cache.Cache
module Wire = Lf_serve.Wire
module Drr = Lf_serve.Drr
module Serve = Lf_serve.Serve
module Client = Lf_serve.Client

open QCheck

(* Frame-level tests write into sockets the peer may have closed; the
   write must surface as EPIPE, not kill the test binary. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ------------------------------------------------------------------ *)
(* Request generator: the six-kernel grid of test_batch, including
   fused-with-derive and Explicit (prebuilt schedule) variants.        *)

let kernels : (string * (int -> Ir.program)) array =
  [|
    ("ll18", fun n -> Lf_kernels.Ll18.program ~n ());
    ("calc", fun n -> Lf_kernels.Calc.program ~n ());
    ("jacobi", fun n -> Lf_kernels.Jacobi.program ~n ());
    ("filter", fun n -> Lf_kernels.Filter.program ~rows:n ~cols:(n / 2 + 8) ());
    ( "tomcatv",
      fun n -> List.hd (Lf_kernels.Apps.tomcatv ~n ()).Lf_kernels.Apps.sequences
    );
    ( "hydro2d",
      fun n ->
        List.hd
          (Lf_kernels.Apps.hydro2d ~rows:n ~cols:(n / 2 + 8) ())
            .Lf_kernels.Apps.sequences );
  |]

let layout_for machine (p : Ir.program) =
  Partition.cache_partitioned
    ~cache:
      {
        Partition.capacity = machine.Machine.cache.Cache.capacity;
        line = machine.Machine.cache.Cache.line;
        assoc = machine.Machine.cache.Cache.assoc;
      }
    p.Ir.decls

(* Build a request from picked coordinates; skips illegal fusions by
   falling back to the unfused variant. *)
let request_of_pick (ki, n, mi, variant_pick, mode, steps, with_layout) =
  let _, prog = kernels.(ki mod Array.length kernels) in
  let p = prog n in
  let machine = if mi then Machine.ksr2 else Machine.convex in
  let layout = if with_layout then Some (layout_for machine p) else None in
  let mk variant = Sim.make ?layout ~steps ~mode ~machine ~nprocs:4 ~variant p in
  let fused_or_unfused f =
    match f () with
    | req when Sim.legal req -> req
    | _ -> mk (Sim.Unfused { grid = None; depth = None })
    | exception _ -> mk (Sim.Unfused { grid = None; depth = None })
  in
  match variant_pick with
  | 0 -> mk (Sim.Unfused { grid = None; depth = None })
  | 1 ->
    fused_or_unfused (fun () ->
        mk (Sim.Fused { grid = None; strip = Some 8; derive = None }))
  | 2 ->
    (* fused with an explicit derive record (shift/peel matrices on the
       wire) *)
    fused_or_unfused (fun () ->
        let d = Derive.of_program ~depth:1 p in
        mk (Sim.Fused { grid = None; strip = Some 8; derive = Some d }))
  | _ ->
    (* Explicit: serialise a prebuilt schedule box by box *)
    fused_or_unfused (fun () ->
        let sched =
          Sim.schedule_of
            (mk (Sim.Fused { grid = None; strip = Some 8; derive = None }))
        in
        Sim.of_schedule ?layout ~steps ~mode ~machine sched)

let pick_gen =
  Gen.(
    map
      (fun (ki, n, mi, v, m, steps, wl) -> (ki, n, mi, v, m, steps, wl))
      (tup7 (int_bound 10) (oneofl [ 24; 32; 40 ]) bool (int_bound 3)
         (oneofl [ Sim.Miss_only; Sim.Run_compressed ])
         (oneofl [ 1; 2; 5 ])
         bool))

let request_arb =
  make ~print:(fun pick -> Sim.canonical (request_of_pick pick)) pick_gen

(* ------------------------------------------------------------------ *)
(* Wire codec properties.                                              *)

let t_request_roundtrip =
  Test.make ~count:60 ~name:"wire: request canonical round-trip" request_arb
    (fun pick ->
      let req = request_of_pick pick in
      let text = Sim.canonical req in
      match Wire.request_of_canonical text with
      | Error m -> Test.fail_reportf "decode failed: %s" m
      | Ok req' ->
        Sim.canonical req' = text && Sim.digest req' = Sim.digest req)

let t_request_frame_roundtrip =
  Test.make ~count:40 ~name:"wire: Request frame round-trip"
    (pair request_arb small_nat) (fun (pick, rid) ->
      let req = request_of_pick pick in
      let payload = Wire.client_msg_to_payload (Wire.Request { rid; req }) in
      match Wire.client_msg_of_payload payload with
      | Ok (Wire.Request { rid = rid'; req = req' }) ->
        rid' = rid && Sim.digest req' = Sim.digest req
      | Ok _ -> false
      | Error m -> Test.fail_reportf "decode failed: %s" m)

let t_request_truncation =
  Test.make ~count:30 ~name:"wire: truncated canonical text is rejected"
    (pair request_arb (make Gen.(float_bound_exclusive 1.0)))
    (fun (pick, frac) ->
      let text = Sim.canonical (request_of_pick pick) in
      let k = int_of_float (frac *. float_of_int (String.length text)) in
      let k = min k (String.length text - 1) in
      match Wire.request_of_canonical (String.sub text 0 k) with
      | Error _ -> true
      | Ok _ -> Test.fail_reportf "accepted a %d/%d-byte prefix" k
                  (String.length text))

let t_request_mutation =
  Test.make ~count:60 ~name:"wire: mutated canonical text never misparses"
    (triple request_arb small_nat char) (fun (pick, pos, c) ->
      let req = request_of_pick pick in
      let text = Sim.canonical req in
      let b = Bytes.of_string text in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos c;
      let mutated = Bytes.to_string b in
      (* strictness: either rejected, or accepted as exactly the request
         the mutated text canonically names (e.g. a digit flip that
         still parses) — never a silent disagreement *)
      match Wire.request_of_canonical mutated with
      | Error _ -> true
      | Ok req' -> Sim.canonical req' = mutated)

(* Floats cross the wire as IEEE-754 bit patterns; any bit pattern,
   including NaNs and infinities, must survive.  Compare by bits. *)
let bits = Int64.bits_of_float

let float_of_bits_gen =
  Gen.(map Int64.float_of_bits (map Int64.of_int int))

let reason_gen =
  Gen.(oneof [ string_size (int_bound 40); return ""; return "a b\nc \xff" ])

let server_msg_gen =
  Gen.(
    oneof
      [
        map2 (fun rid p -> Wire.Accepted { rid; position = p }) small_nat
          small_nat;
        map2 (fun rid reason -> Wire.Overloaded { rid; reason }) small_nat
          reason_gen;
        map2 (fun rid reason -> Wire.Rejected { rid; reason }) small_nat
          reason_gen;
        map3
          (fun rid (a, b) e ->
            Wire.Progress
              {
                Wire.g_rid = rid;
                g_phases = a;
                g_refs = b;
                g_misses = a + b;
                g_elapsed_s = e;
              })
          small_nat (pair small_nat small_nat) float_of_bits_gen;
        map
          (fun kvs -> Wire.Stats_reply kvs)
          (small_list (pair (string_size (int_bound 12)) small_nat));
        return Wire.Pong;
      ])

let server_msg_eq a b =
  match (a, b) with
  | Wire.Progress g, Wire.Progress g' ->
    g.Wire.g_rid = g'.Wire.g_rid
    && g.Wire.g_phases = g'.Wire.g_phases
    && g.Wire.g_refs = g'.Wire.g_refs
    && g.Wire.g_misses = g'.Wire.g_misses
    && bits g.Wire.g_elapsed_s = bits g'.Wire.g_elapsed_s
  | a, b -> a = b

let t_server_msg_roundtrip =
  Test.make ~count:200 ~name:"wire: server message round-trip (float bits)"
    (make server_msg_gen) (fun msg ->
      match Wire.server_msg_of_payload (Wire.server_msg_to_payload msg) with
      | Ok msg' -> server_msg_eq msg msg'
      | Error m -> Test.fail_reportf "decode failed: %s" m)

let results_identical = Tutil.results_identical

let sample_result =
  lazy
    (Exec.run_opts Exec.default_opts
       (Sim.fused ~mode:Sim.Miss_only ~machine:Machine.convex ~nprocs:4
          ~strip:8
          (Lf_kernels.Jacobi.program ~n:24 ())))

let t_result_roundtrip =
  Test.make ~count:60 ~name:"wire: Result frame round-trip (float bits)"
    (triple small_nat bool (make float_of_bits_gen))
    (fun (rid, from_store, wall_s) ->
      let result = Lazy.force sample_result in
      let msg = Wire.Result { rid; from_store; wall_s; result } in
      match Wire.server_msg_of_payload (Wire.server_msg_to_payload msg) with
      | Ok (Wire.Result r) ->
        r.rid = rid && r.from_store = from_store
        && bits r.wall_s = bits wall_s
        && results_identical r.result result
      | Ok _ -> false
      | Error m -> Test.fail_reportf "decode failed: %s" m)

let t_garbage_payload =
  Test.make ~count:200 ~name:"wire: arbitrary payload bytes never raise"
    (string_gen Gen.char) (fun s ->
      (match Wire.client_msg_of_payload s with Ok _ | Error _ -> ());
      (match Wire.server_msg_of_payload s with Ok _ | Error _ -> ());
      (match Wire.request_of_canonical s with Ok _ | Error _ -> ());
      (match Wire.result_of_string s with Ok _ | Error _ -> ());
      true)

(* ------------------------------------------------------------------ *)
(* Framed I/O over a socketpair.                                       *)

let frame_io () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = "R binary \x00\xff\x80 bytes" in
  Wire.write_frame a payload;
  (match Wire.read_frame b with
  | Ok p -> Alcotest.(check string) "payload survives framing" payload p
  | Error e -> Alcotest.failf "read_frame: %s" (Wire.read_error_to_string e));
  (* clean close between frames = Eof *)
  Unix.close a;
  (match Wire.read_frame b with
  | Error Wire.Eof -> ()
  | Ok _ -> Alcotest.fail "expected Eof"
  | Error e -> Alcotest.failf "expected Eof, got %s"
                 (Wire.read_error_to_string e));
  Unix.close b;
  (* close inside a frame = Truncated *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write a header 0 4);
  ignore (Unix.write_substring a "only ten b" 0 10);
  Unix.close a;
  (match Wire.read_frame b with
  | Error Wire.Truncated -> ()
  | Ok _ -> Alcotest.fail "expected Truncated"
  | Error e -> Alcotest.failf "expected Truncated, got %s"
                 (Wire.read_error_to_string e));
  Unix.close b;
  (* absurd length prefix = Oversized, nothing allocated or read *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Bytes.set_int32_be header 0 0x7fff_ffffl;
  ignore (Unix.write a header 0 4);
  (match Wire.read_frame b with
  | Error (Wire.Oversized n) ->
    Alcotest.(check bool) "oversized length reported" true (n > Wire.max_frame)
  | Ok _ -> Alcotest.fail "expected Oversized"
  | Error e -> Alcotest.failf "expected Oversized, got %s"
                 (Wire.read_error_to_string e));
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* DRR admission queue.                                                *)

let drr_rejects () =
  let q = Drr.create ~quantum:4 ~max_inflight:3 ~max_client_queue:2 () in
  let a = Drr.register q and b = Drr.register q in
  Alcotest.(check bool) "1st" true (Drr.submit q ~client:a ~cost:1 "a1" = Ok 1);
  Alcotest.(check bool) "2nd" true (Drr.submit q ~client:a ~cost:1 "a2" = Ok 2);
  (match Drr.submit q ~client:a ~cost:1 "a3" with
  | Error Drr.Queue_full -> ()
  | r -> Alcotest.failf "expected Queue_full, got %s"
           (match r with
           | Ok n -> Printf.sprintf "Ok %d" n
           | Error e -> Drr.reject_to_string e));
  Alcotest.(check bool) "b fits" true
    (Drr.submit q ~client:b ~cost:1 "b1" = Ok 3);
  (match Drr.submit q ~client:b ~cost:1 "b2" with
  | Error Drr.Server_full -> ()
  | _ -> Alcotest.fail "expected Server_full");
  Alcotest.(check int) "queued" 3 (Drr.queued q);
  Drr.drain q;
  (match Drr.submit q ~client:b ~cost:1 "b3" with
  | Error Drr.Draining -> ()
  | _ -> Alcotest.fail "expected Draining");
  (* draining still delivers what was admitted *)
  let rec count n = match Drr.next q with
    | Some _ -> Drr.job_done q; count (n + 1)
    | None -> n
  in
  Alcotest.(check int) "admitted jobs all delivered" 3 (count 0)

let drr_fairness () =
  let q = Drr.create ~quantum:4 ~max_inflight:100 ~max_client_queue:50 () in
  let flood = Drr.register q and single = Drr.register q in
  for i = 0 to 9 do
    match Drr.submit q ~client:flood ~cost:4 (Printf.sprintf "f%d" i) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "flood submit: %s" (Drr.reject_to_string e)
  done;
  (match Drr.submit q ~client:single ~cost:4 "single" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "single submit: %s" (Drr.reject_to_string e));
  (* equal-cost clients alternate under DRR: the single job must be
     dispatched within the first round, not after the whole flood *)
  let rec first_jobs n acc =
    if n = 0 then List.rev acc
    else
      match Drr.next q with
      | Some j -> Drr.job_done q; first_jobs (n - 1) (j :: acc)
      | None -> List.rev acc
  in
  let first3 = first_jobs 3 [] in
  Alcotest.(check bool)
    (Printf.sprintf "single job within first round (got %s)"
       (String.concat "," first3))
    true
    (List.mem "single" first3);
  Drr.unregister q flood;
  Alcotest.(check int) "unregister drops queued jobs" 0 (Drr.queued q)

(* ------------------------------------------------------------------ *)
(* Batch counter scopes (satellite: per-connection accounting).        *)

let counter_scopes () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = Batch.Store.open_ ~dir () in
  let opts = Lf_batch.Run_opts.(make ~store:(Store_in (Some dir)) ()) in
  let req =
    Sim.fused ~mode:Sim.Miss_only ~machine:Machine.convex ~nprocs:4 ~strip:8
      (Lf_kernels.Jacobi.program ~n:24 ())
  in
  let s1 = Batch.Counters.create () and s2 = Batch.Counters.create () in
  let h0 = Batch.hit_count () and c0 = Batch.computed_count () in
  ignore (Batch.run_one_with ~scope:s1 opts req);
  Alcotest.(check (pair int int)) "scope1: first run computes" (0, 1)
    (Batch.Counters.hits s1, Batch.Counters.computed s1);
  (match Batch.try_store ~scope:s2 store req with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a store hit");
  ignore (Batch.run_one_with ~scope:s2 opts req);
  Alcotest.(check (pair int int)) "scope2 counts its own traffic" (2, 0)
    (Batch.Counters.hits s2, Batch.Counters.computed s2);
  Alcotest.(check (pair int int)) "scope1 unaffected by scope2" (0, 1)
    (Batch.Counters.hits s1, Batch.Counters.computed s1);
  (* the process-wide view still aggregates everything *)
  Alcotest.(check (pair int int)) "process-wide totals" (2, 1)
    (Batch.hit_count () - h0, Batch.computed_count () - c0);
  Batch.Counters.reset s2;
  Alcotest.(check (pair int int)) "reset zeroes the scope" (0, 0)
    (Batch.Counters.hits s2, Batch.Counters.computed s2)

(* ------------------------------------------------------------------ *)
(* Live server tests.                                                  *)

(* A server's socket and store paths in a test's scratch [dir]. *)
let paths_in dir = (Filename.concat dir "s.sock", Filename.concat dir "store")

let test_cfg ~socket ~store_dir =
  let dc = Serve.default_config () in
  {
    dc with
    Serve.socket;
    workers = 2;
    max_inflight = 8;
    max_client_queue = 4;
    store_dir = Some store_dir;
    progress_interval_s = 0.05;
    verbose = false;
  }

let test_requests () =
  let jacobi = Lf_kernels.Jacobi.program ~n:32 () in
  let calc = Lf_kernels.Calc.program ~n:32 () in
  [
    Sim.fused ~mode:Sim.Miss_only ~machine:Machine.convex ~nprocs:4 ~strip:8
      jacobi;
    Sim.unfused ~mode:Sim.Run_compressed ~machine:Machine.ksr2 ~nprocs:4
      jacobi;
    Sim.fused ~mode:Sim.Run_compressed ~machine:Machine.convex ~nprocs:4
      ~strip:8 calc;
  ]

let server_robustness () =
  Tutil.with_temp_dir @@ fun dir ->
  let socket, store_dir = paths_in dir in
  let t = Serve.start (test_cfg ~socket ~store_dir) in
  Fun.protect
    ~finally:(fun () -> Serve.stop t)
    (fun () ->
      (* 1. well-framed garbage payload: Rejected, connection survives *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Wire.write_frame fd "Znot a message";
      (match Wire.read_frame fd with
      | Ok p -> (
        match Wire.server_msg_of_payload p with
        | Ok (Wire.Rejected _) -> ()
        | _ -> Alcotest.fail "expected Rejected for garbage payload")
      | Error e -> Alcotest.failf "read: %s" (Wire.read_error_to_string e));
      (* same connection still answers pings *)
      Wire.write_frame fd (Wire.client_msg_to_payload Wire.Ping);
      (match Wire.read_frame fd with
      | Ok p -> (
        match Wire.server_msg_of_payload p with
        | Ok Wire.Pong -> ()
        | _ -> Alcotest.fail "expected Pong after rejected garbage")
      | Error e -> Alcotest.failf "read: %s" (Wire.read_error_to_string e));
      (* 2. a truncated frame kills only this connection *)
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 4096l;
      ignore (Unix.write fd header 0 4);
      ignore (Unix.write_substring fd "short" 0 5);
      Unix.close fd;
      (* 3. a fresh connection is served normally afterwards *)
      let c = Client.connect ~socket () in
      Alcotest.(check bool) "server alive after broken frame" true (Client.ping c);
      Client.close c;
      (* 4. a request frame naming an unknown engine ("full", no longer
         a tier) is Rejected, and the connection lives on *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let payload =
        Wire.client_msg_to_payload
          (Wire.Request
             {
               rid = 7;
               req =
                 Sim.fused ~mode:Sim.Miss_only ~machine:Machine.convex
                   ~nprocs:4 ~strip:8
                   (Lf_kernels.Jacobi.program ~n:32 ());
             })
      in
      let suffix = "\nmode miss-only" in
      let keep = String.length payload - String.length suffix in
      Alcotest.(check string) "payload ends with its mode" suffix
        (String.sub payload keep (String.length suffix));
      Wire.write_frame fd (String.sub payload 0 keep ^ "\nmode full");
      (match Wire.read_frame fd with
      | Ok p -> (
        match Wire.server_msg_of_payload p with
        | Ok (Wire.Rejected _) -> ()
        | _ -> Alcotest.fail "expected Rejected for mode full")
      | Error e -> Alcotest.failf "read: %s" (Wire.read_error_to_string e));
      Wire.write_frame fd (Wire.client_msg_to_payload Wire.Ping);
      (match Wire.read_frame fd with
      | Ok p -> (
        match Wire.server_msg_of_payload p with
        | Ok Wire.Pong -> ()
        | _ -> Alcotest.fail "expected Pong after a rejected mode")
      | Error e -> Alcotest.failf "read: %s" (Wire.read_error_to_string e));
      Unix.close fd;
      (* 5. disconnecting mid-request leaves the server healthy *)
      let c = Client.connect ~socket () in
      let slow =
        Sim.fused ~mode:Sim.Miss_only ~machine:Machine.convex ~nprocs:4
          ~strip:8 ~steps:10
          (Lf_kernels.Jacobi.program ~n:48 ())
      in
      Client.send c (Wire.Request { rid = 99; req = slow });
      Client.close c;
      (* the worker will compute and hit EPIPE on delivery *)
      let c = Client.connect ~socket () in
      (match Client.request_sync c ~rid:1 (List.hd (test_requests ())) with
      | Ok (Client.Served _) -> ()
      | Ok _ -> Alcotest.fail "expected Served after mid-request disconnect"
      | Error e -> Alcotest.failf "transport: %s" e);
      Client.close c)

let server_bit_identity () =
  Tutil.with_temp_dir @@ fun dir ->
  let socket, store_dir = paths_in dir in
  let t = Serve.start (test_cfg ~socket ~store_dir) in
  Fun.protect
    ~finally:(fun () -> Serve.stop t)
    (fun () ->
      let reqs = test_requests () in
      (* local references, bit-exact by the engine's determinism *)
      let refs = List.map (Exec.run_opts Exec.default_opts) reqs in
      (* three concurrent client domains, each its own connection and
         full pass over the request list; first computes, rest hit *)
      let client_pass i =
        let c = Client.connect ~socket () in
        let got =
          List.mapi
            (fun j req ->
              match Client.request_sync c ~rid:((i * 100) + j) req with
              | Ok (Client.Served s) -> s.Client.result
              | Ok (Client.Overloaded r) -> failwith ("overloaded: " ^ r)
              | Ok (Client.Rejected r) -> failwith ("rejected: " ^ r)
              | Error e -> failwith ("transport: " ^ e))
            reqs
        in
        let st =
          match Client.stats c with Ok kvs -> kvs | Error e -> failwith e
        in
        Client.close c;
        (got, st)
      in
      let domains = List.init 3 (fun i -> Domain.spawn (fun () -> client_pass i)) in
      let passes = List.map Domain.join domains in
      List.iteri
        (fun i (got, stats) ->
          List.iteri
            (fun j (r, r') ->
              Alcotest.(check bool)
                (Printf.sprintf "client %d request %d bit-identical" i j)
                true (results_identical r r'))
            (List.combine got refs);
          (* per-connection scope accounting: every request this client
             sent is either a hit or computed, nothing more or less *)
          let v k = try List.assoc k stats with Not_found -> -1 in
          Alcotest.(check int)
            (Printf.sprintf "client %d conn counters" i)
            (List.length reqs)
            (v "conn_hits" + v "conn_computed"))
        passes;
      (* the store now holds every unique request: one more pass is
         all fast-path hits *)
      let c = Client.connect ~socket () in
      List.iteri
        (fun j req ->
          match Client.request_sync c ~rid:(900 + j) req with
          | Ok (Client.Served s) ->
            Alcotest.(check bool)
              (Printf.sprintf "warm pass %d from store" j)
              true s.Client.from_store;
            Alcotest.(check int)
              (Printf.sprintf "warm pass %d fast path (position 0)" j)
              0 s.Client.position
          | Ok _ -> Alcotest.fail "warm pass refused"
          | Error e -> Alcotest.failf "transport: %s" e)
        reqs;
      Client.close c)

let server_saturation () =
  Tutil.with_temp_dir @@ fun dir ->
  let socket, store_dir = paths_in dir in
  let dc = Serve.default_config () in
  let t =
    Serve.start
      {
        dc with
        Serve.socket;
        workers = 1;
        max_inflight = 2;
        max_client_queue = 8;
        store_dir = Some store_dir;
        progress_interval_s = 0.05;
        verbose = false;
      }
  in
  Fun.protect
    ~finally:(fun () -> Serve.stop t)
    (fun () ->
      let c = Client.connect ~socket () in
      (* a slow job occupies the single worker; with max_inflight 2
         only one more admission fits, the rest must be Overloaded *)
      let slow =
        Sim.fused ~mode:Sim.Miss_only ~machine:Machine.convex ~nprocs:4
          ~strip:8 ~steps:20
          (Lf_kernels.Jacobi.program ~n:256 ())
      in
      let quick i =
        Sim.fused ~mode:Sim.Miss_only ~machine:Machine.convex ~nprocs:4
          ~strip:8
          (Lf_kernels.Jacobi.program ~n:(24 + (4 * i)) ())
      in
      Client.send c (Wire.Request { rid = 0; req = slow });
      for i = 1 to 4 do
        Client.send c (Wire.Request { rid = i; req = quick i })
      done;
      (* collect frames until every rid has its terminal reply *)
      let terminal = Hashtbl.create 8 in
      let progress_seen = ref false in
      let overloaded = ref 0 in
      while Hashtbl.length terminal < 5 do
        match Client.recv c with
        | Ok (Wire.Accepted _) -> ()
        | Ok (Wire.Progress _) -> progress_seen := true
        | Ok (Wire.Overloaded { rid; _ }) ->
          incr overloaded;
          Hashtbl.replace terminal rid `Overloaded
        | Ok (Wire.Rejected { rid; _ }) -> Hashtbl.replace terminal rid `Rejected
        | Ok (Wire.Result { rid; _ }) -> Hashtbl.replace terminal rid `Served
        | Ok _ -> Alcotest.fail "unexpected frame"
        | Error e -> Alcotest.failf "read: %s" (Wire.read_error_to_string e)
      done;
      Client.close c;
      Alcotest.(check bool)
        (Printf.sprintf "saturating burst sheds load (%d overloaded)"
           !overloaded)
        true
        (!overloaded >= 1);
      Alcotest.(check bool) "slow job streamed progress" true !progress_seen;
      Alcotest.(check bool) "bounded queue: at most 2 admitted" true
        (5 - !overloaded <= 2))

let server_stop_releases_socket () =
  Tutil.with_temp_dir @@ fun dir ->
  let socket, store_dir = paths_in dir in
  let t = Serve.start (test_cfg ~socket ~store_dir) in
  let c = Client.connect ~socket () in
  Alcotest.(check bool) "live" true (Client.ping c);
  Client.close c;
  Serve.stop t;
  Serve.stop t;
  (* idempotent *)
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  (match Client.connect ~socket () with
  | c ->
    Client.close c;
    Alcotest.fail "connect succeeded after stop"
  | exception Unix.Unix_error _ -> ());
  (* the port is reusable: a second server binds the same path *)
  let t2 = Serve.start (test_cfg ~socket ~store_dir) in
  let c = Client.connect ~socket () in
  Alcotest.(check bool) "rebound" true (Client.ping c);
  Client.close c;
  Serve.stop t2

let suite =
  [
    Tutil.to_alcotest t_request_roundtrip;
    Tutil.to_alcotest t_request_frame_roundtrip;
    Tutil.to_alcotest t_request_truncation;
    Tutil.to_alcotest t_request_mutation;
    Tutil.to_alcotest t_server_msg_roundtrip;
    Tutil.to_alcotest t_result_roundtrip;
    Tutil.to_alcotest t_garbage_payload;
    Alcotest.test_case "frame I/O over a socketpair" `Quick frame_io;
    Alcotest.test_case "drr: bounded queues reject" `Quick drr_rejects;
    Alcotest.test_case "drr: flooding client cannot starve" `Quick
      drr_fairness;
    Alcotest.test_case "batch counter scopes" `Quick counter_scopes;
    Alcotest.test_case "server: malformed frames and disconnects" `Quick
      server_robustness;
    Alcotest.test_case "server: concurrent clients, bit-identity" `Quick
      server_bit_identity;
    Alcotest.test_case "server: saturation sheds load" `Quick
      server_saturation;
    Alcotest.test_case "server: stop drains and releases the socket" `Quick
      server_stop_releases_socket;
  ]
