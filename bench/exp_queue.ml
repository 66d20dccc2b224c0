(* `bench queue` (BENCH_8): distributed sweep fan-out through the
   filesystem work queue (lf_queue), plus the fingerprint-salted
   incremental-invalidation experiment.

   Ladder: the standard sweep mix is computed once serially (jobs=1,
   fresh store) as the bit-identity baseline, then drained from a fresh
   store+queue by 1, 2 and 4 forked worker processes.  After every rung
   each request's persisted observables must be byte-for-byte the
   serial ones — the queue may only change *where* work runs, never
   what it produces.  Wall-clock per rung is reported honestly: on a
   single-core host the ladder measures protocol overhead, not speedup.

   Invalidation: with the 4-worker store warm, the "derive" fingerprint
   is bumped and the sweep re-enqueued.  Exactly the fused-variant
   digests (the only requests whose replay depends on Derive) must come
   back as misses — counted and asserted — and after a drain their
   observables under the new digests must again equal the serial
   baseline: a fingerprint bump renames results, it never changes them.

   Fork discipline: as in exp_serve, the parent releases the shared
   pool and computes its serial baseline with jobs=1 (inline, no
   domains), so forking workers is safe; children may spawn their own
   domains. *)

module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec
module Batch = Lf_batch.Batch
module Queue = Lf_queue.Queue
module Sweep = Lf_queue.Sweep

(* Observable equality, field by field; floats compared as IEEE bits
   (the store's own round-trip representation). *)
let obs_equal (a : Exec.result) (b : Exec.result) =
  let fb = Int64.bits_of_float in
  fb a.Exec.cycles = fb b.Exec.cycles
  && fb a.Exec.barrier_cycles = fb b.Exec.barrier_cycles
  && Array.length a.Exec.phase_cycles = Array.length b.Exec.phase_cycles
  && Array.for_all2 (fun x y -> fb x = fb y) a.Exec.phase_cycles
       b.Exec.phase_cycles
  && a.Exec.total_refs = b.Exec.total_refs
  && a.Exec.total_misses = b.Exec.total_misses
  && a.Exec.cold_misses = b.Exec.cold_misses
  && a.Exec.tlb_misses = b.Exec.tlb_misses
  && a.Exec.proc_misses = b.Exec.proc_misses

let temp_dir tag =
  let d = Filename.temp_file ("lf_queue_" ^ tag) "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf d = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d)))

(* Fork [w] draining workers against [store_dir]/[queue_dir]; each
   writes "claimed computed hits failed reclaimed" to a log the parent
   aggregates.  Returns (wall_s, totals, worker_failures). *)
let drain_with_workers ~w ~store_dir ~queue_dir =
  Exec.release_shared_pool ();
  let logs =
    List.init w (fun i -> Filename.temp_file "lf_queue_worker" (string_of_int i))
  in
  let t0 = Unix.gettimeofday () in
  let pids =
    List.mapi
      (fun i log ->
        let pid = Unix.fork () in
        if pid = 0 then begin
          (try
             let store = Batch.Store.open_ ~dir:store_dir () in
             let q = Queue.open_ ~dir:queue_dir in
             let st =
               Queue.worker
                 ~wid:(Printf.sprintf "w%d-%d" (Unix.getpid ()) i)
                 ~ttl:5.0 ~store q
             in
             let oc = open_out log in
             Printf.fprintf oc "%d %d %d %d %d\n" st.Queue.w_claimed
               st.Queue.w_computed st.Queue.w_hits st.Queue.w_failed
               st.Queue.w_reclaimed;
             close_out oc
           with _ -> Stdlib.exit 1);
          Stdlib.exit 0
        end;
        pid)
      logs
  in
  let failures =
    List.fold_left
      (fun acc pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> acc
        | _ -> acc + 1)
      0 pids
  in
  let wall = Unix.gettimeofday () -. t0 in
  let totals = Array.make 5 0 in
  List.iter
    (fun log ->
      (match open_in log with
      | ic ->
        (try
           match String.split_on_char ' ' (input_line ic) with
           | [ a; b; c; d; e ] ->
             List.iteri
               (fun i v -> totals.(i) <- totals.(i) + int_of_string v)
               [ a; b; c; d; e ]
           | _ -> ()
         with _ -> ());
        close_in_noerr ic
      | exception _ -> ());
      (try Sys.remove log with _ -> ()))
    logs;
  (wall, totals, failures)

let run (cfg : Util.cfg) =
  Util.header "Queue: multi-process sweep fan-out + fingerprint invalidation";
  let n = Util.scale cfg 48 32 in
  let mix = Sweep.mix ~n () in
  let nmix = List.length mix in
  (* the invalidation count is over unique digests, so the mix's
     repeated requests must not be double-counted *)
  let unique_mix =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun r ->
        let d = Sim.digest r in
        if Hashtbl.mem seen d then false
        else begin
          Hashtbl.add seen d ();
          true
        end)
      mix
  in
  let fused_count =
    List.length
      (List.filter
         (fun r -> match r.Sim.variant with Sim.Fused _ -> true | _ -> false)
         unique_mix)
  in
  Util.pr "mix: %d requests (%d unique, n=%d), %d unique fused-variant@." nmix
    (List.length unique_mix) n fused_count;
  Sim.Fingerprint.clear_overrides ();
  (* serial baseline: fresh store, inline jobs=1, no domains *)
  Exec.release_shared_pool ();
  let serial =
    Lf_batch.Run_opts.(
      make ~jobs:1 ~store:(Store_in (Some (temp_dir "serial"))) ())
  in
  let serial_store = Option.get (Batch.store_of_opts serial) in
  let t0 = Unix.gettimeofday () in
  let _outcomes, summary = Batch.run_with serial mix in
  let serial_wall = Unix.gettimeofday () -. t0 in
  Util.pr "serial baseline: %a@." Batch.pp_summary summary;
  let baseline =
    List.filter_map
      (fun r ->
        match Batch.Store.lookup serial_store r with
        | Some res -> Some (Sim.digest r, (r, res))
        | None -> None)
      mix
  in
  if List.length baseline <> nmix then begin
    Util.pr "QUEUE BENCH FAILED: serial baseline store incomplete@.";
    Stdlib.exit 1
  end;
  (* identity of a drained store vs the serial baseline *)
  let identical_to_baseline store =
    List.for_all
      (fun (_, (r, res)) ->
        match Batch.Store.lookup store r with
        | Some got -> obs_equal got res
        | None -> false)
      baseline
  in
  let ladder = [ 1; 2; 4 ] in
  let rungs =
    List.map
      (fun w ->
        let store_dir = temp_dir (Printf.sprintf "w%d" w) in
        let queue_dir = temp_dir (Printf.sprintf "q%d" w) in
        let store = Batch.Store.open_ ~dir:store_dir () in
        let q = Queue.open_ ~dir:queue_dir in
        let enq = Queue.enqueue_misses q ~store mix in
        let wall, totals, failures = drain_with_workers ~w ~store_dir ~queue_dir in
        let st = Queue.status q in
        let ok =
          failures = 0 && st.Queue.pending = 0 && st.Queue.leased = 0
          && st.Queue.failed = 0
        in
        let identical = ok && identical_to_baseline store in
        Util.pr
          "%d worker(s): enqueued %d, drained in %6.2f s — claimed %d, \
           computed %d, hits %d, reclaimed %d; bit-identical to serial: %s@."
          w enq.Queue.e_enqueued wall totals.(0) totals.(1) totals.(2)
          totals.(4)
          (if identical then "yes" else "NO");
        rm_rf store_dir;
        rm_rf queue_dir;
        (w, wall, totals, identical, ok))
      ladder
  in
  (* invalidation: warm store, bump "derive", re-enqueue *)
  let inv_store_dir = temp_dir "inv" in
  let inv_queue_dir = temp_dir "invq" in
  let inv_store = Batch.Store.open_ ~dir:inv_store_dir () in
  let inv_q = Queue.open_ ~dir:inv_queue_dir in
  ignore (Queue.enqueue_misses inv_q ~store:inv_store mix);
  let _ = drain_with_workers ~w:2 ~store_dir:inv_store_dir ~queue_dir:inv_queue_dir in
  (match Sim.Fingerprint.set_override "derive" "lf-derive-bench-bump" with
  | Ok () -> ()
  | Error m -> failwith m);
  let inv_enq = Queue.enqueue_misses inv_q ~store:inv_store mix in
  let inv_exact = inv_enq.Queue.e_enqueued = fused_count in
  Util.pr
    "fingerprint bump (derive): %d digest(s) invalidated (expected %d — \
     exactly the fused variants): %s@."
    inv_enq.Queue.e_enqueued fused_count
    (if inv_exact then "exact" else "MISMATCH");
  let _ = drain_with_workers ~w:2 ~store_dir:inv_store_dir ~queue_dir:inv_queue_dir in
  (* renamed, not changed: new digests must hold the old observables *)
  let inv_identical = identical_to_baseline inv_store in
  Util.pr "observables under bumped fingerprints identical to serial: %s@."
    (if inv_identical then "yes" else "NO");
  let inv_status = Queue.status inv_q in
  Sim.Fingerprint.clear_overrides ();
  rm_rf inv_store_dir;
  rm_rf inv_queue_dir;
  let all_ok =
    List.for_all (fun (_, _, _, identical, ok) -> identical && ok) rungs
    && inv_exact && inv_identical
    && inv_status.Queue.failed = 0
  in
  Util.note ~id:"queue"
    (List.concat
       [
         [
           ("mix", Util.Int nmix);
           ("fused_variants", Util.Int fused_count);
           ("serial_wall_s", Util.Float serial_wall);
         ];
         List.concat_map
           (fun (w, wall, totals, identical, ok) ->
             let p = Printf.sprintf "w%d_" w in
             [
               (p ^ "wall_s", Util.Float wall);
               (p ^ "claimed", Util.Int totals.(0));
               (p ^ "computed", Util.Int totals.(1));
               (p ^ "hits", Util.Int totals.(2));
               (p ^ "reclaimed", Util.Int totals.(4));
               (p ^ "drained_clean", Util.Bool ok);
               (p ^ "bit_identical", Util.Bool identical);
             ])
           rungs;
         [
           ("invalidated", Util.Int inv_enq.Queue.e_enqueued);
           ("invalidated_expected", Util.Int fused_count);
           ("invalidation_exact", Util.Bool inv_exact);
           ("invalidation_bit_identical", Util.Bool inv_identical);
         ];
       ]);
  if not all_ok then begin
    Util.pr "queue bench FAILED@.";
    Stdlib.exit 1
  end
