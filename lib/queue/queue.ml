(* Filesystem work-queue (see queue.mli for the protocol contract).

   Directory layout under the queue root:

     tasks/<digest>.task         pending work, one canonical request
     leases/<digest>.<wid>.lease claimed work; mtime is the heartbeat
     failed/<digest>.err         terminal failures (error text)
     fingerprints                the enqueuer's Sim.Fingerprint view

   Every transition is a single atomic filesystem operation (rename or
   tempfile+rename), so any number of enqueuers and workers can share
   the directory with no locking:

     enqueue   = tempfile + rename into tasks/
     claim     = rename tasks/ -> leases/ (losing the race = ENOENT,
                 move on to the next candidate)
     heartbeat = utimes on the held lease
     reclaim   = rename an expired lease back into tasks/
     complete  = publish to the store (itself atomic), remove the lease
     fail      = tempfile + rename into failed/, remove the lease

   Crash safety is inherited from the store: results are
   content-addressed and published atomically, so a stolen lease can at
   worst recompute a result and overwrite it with identical bytes —
   wasted work, never a wrong answer. *)

module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts
module Wire = Lf_serve.Wire

type t = { qdir : string }

let tasks_dir t = Filename.concat t.qdir "tasks"
let leases_dir t = Filename.concat t.qdir "leases"
let failed_dir t = Filename.concat t.qdir "failed"
let fingerprint_file t = Filename.concat t.qdir "fingerprints"

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ~dir =
  let t = { qdir = dir } in
  List.iter mkdir_p [ tasks_dir t; leases_dir t; failed_dir t ];
  t

let dir t = t.qdir
let task_ext = ".task"
let lease_ext = ".lease"
let err_ext = ".err"
let task_path t d = Filename.concat (tasks_dir t) (d ^ task_ext)

let lease_path t ~wid d =
  Filename.concat (leases_dir t) (d ^ "." ^ wid ^ lease_ext)

let failed_path t d = Filename.concat (failed_dir t) (d ^ err_ext)

(* digest of a lease filename: <digest>.<wid>.lease *)
let lease_digest f =
  match String.index_opt f '.' with
  | Some i -> String.sub f 0 i
  | None -> f

let files dir ext =
  match Sys.readdir dir with
  | exception _ -> []
  | fs ->
    Array.to_list fs
    |> List.filter (fun f -> Filename.check_suffix f ext)
    |> List.sort compare

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_atomic ~dir ~path content =
  let tmp = Filename.temp_file ~temp_dir:dir ".lfq" ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content);
    Sys.rename tmp path
  with
  | () -> true
  | exception _ ->
    (try Sys.remove tmp with _ -> ());
    false

(* ------------------------------------------------------------------ *)
(* Status                                                              *)

type qstatus = { pending : int; leased : int; failed : int }

let status t =
  {
    pending = List.length (files (tasks_dir t) task_ext);
    leased = List.length (files (leases_dir t) lease_ext);
    failed = List.length (files (failed_dir t) err_ext);
  }

let pending_digests t =
  List.map (fun f -> Filename.chop_suffix f task_ext) (files (tasks_dir t) task_ext)

let failures t =
  List.map
    (fun f ->
      let d = Filename.chop_suffix f err_ext in
      let msg =
        match read_file (Filename.concat (failed_dir t) f) with
        | exception _ -> ""
        | s -> String.trim s
      in
      (d, msg))
    (files (failed_dir t) err_ext)

let record_failure t d msg =
  ignore (write_atomic ~dir:(failed_dir t) ~path:(failed_path t d) (msg ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Enqueue                                                             *)

type enqueue_outcome = [ `Enqueued | `Already_queued | `Already_failed ]

let lease_held t d =
  List.exists
    (fun f -> lease_digest f = d)
    (files (leases_dir t) lease_ext)

let enqueue t req : enqueue_outcome =
  let d = Sim.digest req in
  if Sys.file_exists (failed_path t d) then `Already_failed
  else if Sys.file_exists (task_path t d) || lease_held t d then
    `Already_queued
  else if write_atomic ~dir:(tasks_dir t) ~path:(task_path t d)
            (Sim.canonical req)
  then `Enqueued
  else `Already_queued

type enqueue_stats = {
  e_total : int;  (** requests submitted *)
  e_unique : int;  (** distinct digests among them *)
  e_hits : int;  (** already answered by the store *)
  e_enqueued : int;  (** task files written *)
  e_queued_before : int;  (** already pending or leased *)
  e_failed_before : int;  (** terminally failed earlier *)
}

(* One sweep's misses into the queue.  The fingerprint file is written
   first so workers joining at any point share the enqueuer's view —
   the digests in task filenames only mean anything under it. *)
let enqueue_misses ?(save_fingerprints = true) ?(cold = false) t ~store reqs =
  if save_fingerprints then Sim.Fingerprint.save_file (fingerprint_file t);
  let seen = Hashtbl.create 64 in
  let total = ref 0
  and hits = ref 0
  and enq = ref 0
  and qb = ref 0
  and fb = ref 0 in
  List.iter
    (fun req ->
      incr total;
      let d = Sim.digest req in
      if not (Hashtbl.mem seen d) then begin
        Hashtbl.add seen d ();
        if (not cold) && Batch.Store.lookup store req <> None then incr hits
        else
          match enqueue t req with
          | `Enqueued -> incr enq
          | `Already_queued -> incr qb
          | `Already_failed -> incr fb
      end)
    reqs;
  {
    e_total = !total;
    e_unique = Hashtbl.length seen;
    e_hits = !hits;
    e_enqueued = !enq;
    e_queued_before = !qb;
    e_failed_before = !fb;
  }

(* ------------------------------------------------------------------ *)
(* Claim / reclaim                                                     *)

let reclaim_expired ~ttl t =
  let now = Unix.gettimeofday () in
  List.fold_left
    (fun acc f ->
      let p = Filename.concat (leases_dir t) f in
      match Unix.stat p with
      | exception _ -> acc
      | st ->
        if now -. st.Unix.st_mtime <= ttl then acc
        else
          let d = lease_digest f in
          (* rename over a duplicate task file is fine: same content *)
          (match Sys.rename p (task_path t d) with
          | () -> acc + 1
          | exception _ -> acc))
    0
    (files (leases_dir t) lease_ext)

let claim ~wid t =
  let rec go = function
    | [] -> None
    | f :: rest -> (
      let d = Filename.chop_suffix f task_ext in
      let src = Filename.concat (tasks_dir t) f in
      let dst = lease_path t ~wid d in
      match Sys.rename src dst with
      | exception _ -> go rest (* another worker won the race *)
      | () -> (
        match read_file dst with
        | text -> Some (d, text, dst)
        | exception _ ->
          (try Sys.remove dst with _ -> ());
          go rest))
  in
  go (files (tasks_dir t) task_ext)

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)

type worker_stats = {
  w_claimed : int;
  w_computed : int;  (** simulations actually run *)
  w_hits : int;  (** claims already answered by the store *)
  w_failed : int;
  w_reclaimed : int;  (** expired leases returned to the queue *)
}

let default_ttl = 10.0

let worker ?wid ?(ttl = default_ttl) ?(poll_s = 0.05) ?idle_timeout_s
    ?(opts = Run_opts.default) ~store t =
  (* only the options' jobs apply: everything else about a task is
     inside its request, and the store is the queue's own *)
  let opts =
    Run_opts.make ?jobs:opts.Run_opts.jobs
      ~store:(Run_opts.Store_in (Some (Batch.Store.dir store)))
      ()
  in
  let wid =
    match wid with Some w -> w | None -> Printf.sprintf "w%d" (Unix.getpid ())
  in
  (* Heartbeat thread: refresh the held lease's mtime well inside the
     ttl so a live worker's lease is never mistaken for a corpse's.  It
     waits out each period in [select] on a pipe, and stopping it
     writes one byte there, so the worker returns as soon as its loop
     ends, not up to a period later, however the loop ends. *)
  let hb_mu = Mutex.create () in
  let hb_lease = ref None in
  let set_lease l =
    Mutex.lock hb_mu;
    hb_lease := l;
    Mutex.unlock hb_mu
  in
  let period = Float.max 0.01 (ttl /. 4.0) in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let rec beat () =
    Mutex.lock hb_mu;
    (match !hb_lease with
    | Some p -> ( try Unix.utimes p 0.0 0.0 with _ -> ())
    | None -> ());
    Mutex.unlock hb_mu;
    match Unix.select [ wake_r ] [] [] period with
    | [], _, _ -> beat ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> beat ()
  in
  let hb = Thread.create beat () in
  let stop_heartbeat () =
    ignore (Unix.write_substring wake_w "x" 0 1);
    Thread.join hb;
    Unix.close wake_r;
    Unix.close wake_w
  in
  Fun.protect ~finally:stop_heartbeat @@ fun () ->
  let scope = Batch.Counters.create () in
  let claimed = ref 0 and failed = ref 0 and reclaimed = ref 0 in
  let idle_since = ref (Unix.gettimeofday ()) in
  let stop = ref false in
  while not !stop do
    (* adopt the enqueuer's fingerprint view before interpreting any
       digest; refreshed every round so a --watch re-enqueue under new
       fingerprints is picked up without restarting workers *)
    (match Sim.Fingerprint.load_file (fingerprint_file t) with
    | Ok () | Error _ -> ());
    reclaimed := !reclaimed + reclaim_expired ~ttl t;
    match claim ~wid t with
    | Some (d, text, lease) ->
      incr claimed;
      idle_since := Unix.gettimeofday ();
      set_lease (Some lease);
      (match Wire.request_of_canonical text with
      | Error e ->
        record_failure t d ("unparseable task: " ^ e);
        incr failed
      | Ok req ->
        let live = Sim.digest req in
        if live <> d then begin
          (* our fingerprint view disagrees with the enqueuer's: a
             completion would publish under the wrong key, so surface
             the divergence instead of looping *)
          record_failure t d
            (Printf.sprintf
               "digest mismatch: task %s, live view %s (fingerprint file \
                out of sync?)"
               d live);
          incr failed
        end
        else
          match Batch.run_one_with ~scope opts req with
          | _res -> ()
          | exception e ->
            record_failure t d (Printexc.to_string e);
            incr failed);
      set_lease None;
      (try Sys.remove lease with _ -> ())
    | None -> (
      set_lease None;
      let st = status t in
      let drained = st.pending = 0 && st.leased = 0 in
      match idle_timeout_s with
      | None -> if drained then stop := true else Thread.delay poll_s
      | Some limit ->
        if Unix.gettimeofday () -. !idle_since > limit then stop := true
        else Thread.delay poll_s)
  done;
  {
    w_claimed = !claimed;
    w_computed = Batch.Counters.computed scope;
    w_hits = Batch.Counters.hits scope;
    w_failed = !failed;
    w_reclaimed = !reclaimed;
  }

(* ------------------------------------------------------------------ *)
(* Wait                                                                *)

let wait ?(poll_s = 0.05) ?timeout_s t =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let st = status t in
    if st.pending = 0 && st.leased = 0 then `Drained
    else
      match timeout_s with
      | Some lim when Unix.gettimeofday () -. t0 > lim -> `Timeout
      | _ ->
        Thread.delay poll_s;
        go ()
  in
  go ()

let pp_status ppf s =
  Fmt.pf ppf "%d pending, %d leased, %d failed" s.pending s.leased s.failed

let pp_worker_stats ppf w =
  Fmt.pf ppf "claimed %d (computed %d, store hits %d), failed %d, reclaimed %d"
    w.w_claimed w.w_computed w.w_hits w.w_failed w.w_reclaimed
