module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec
module Pool = Lf_parallel.Pool

(* Process-wide hit/miss counters, shared by every store handle and
   batch: harnesses (bench --json, lfc) report deltas of these.  A
   Counters.scope is an additional pair bumped alongside them when a
   caller wants a private window (per-connection stats in lfc serve). *)
let hits_total = Atomic.make 0
let computed_total = Atomic.make 0
let hit_count () = Atomic.get hits_total
let computed_count () = Atomic.get computed_total

module Counters = struct
  type scope = { s_hits : int Atomic.t; s_computed : int Atomic.t }

  let create () = { s_hits = Atomic.make 0; s_computed = Atomic.make 0 }
  let hits s = Atomic.get s.s_hits
  let computed s = Atomic.get s.s_computed

  let reset s =
    Atomic.set s.s_hits 0;
    Atomic.set s.s_computed 0
end

let note_hit scope =
  Atomic.incr hits_total;
  Option.iter (fun s -> Atomic.incr s.Counters.s_hits) scope

let note_computed scope =
  Atomic.incr computed_total;
  Option.iter (fun s -> Atomic.incr s.Counters.s_computed) scope

module Result_lines = struct
  exception Malformed of string

  let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

  let fbits x = Int64.to_string (Int64.bits_of_float x)

  let add b (res : Exec.result) =
    let line fmt = Printf.bprintf b fmt in
    line "cycles %s\n" (fbits res.Exec.cycles);
    line "barrier %s\n" (fbits res.Exec.barrier_cycles);
    line "phases %d\n" (Array.length res.Exec.phase_cycles);
    Array.iter (fun c -> line "p %s\n" (fbits c)) res.Exec.phase_cycles;
    line "refs %d\n" res.Exec.total_refs;
    line "misses %d\n" res.Exec.total_misses;
    line "cold %d\n" res.Exec.cold_misses;
    line "tlb %d\n" res.Exec.tlb_misses;
    line "procs %d\n" (Array.length res.Exec.proc_misses);
    Array.iter (fun m -> line "m %d\n" m) res.Exec.proc_misses;
    line "end\n"

  type cursor = string list ref

  let cursor text = ref (String.split_on_char '\n' text)

  let next cur =
    match !cur with
    | [] -> malformed "truncated"
    | l :: tl ->
      cur := tl;
      l

  let field cur key =
    let l = next cur in
    let pl = String.length key + 1 in
    if String.length l > pl && String.sub l 0 pl = key ^ " " then
      String.sub l pl (String.length l - pl)
    else malformed "expected field %s" key

  let int cur key =
    match int_of_string_opt (field cur key) with
    | Some n -> n
    | None -> malformed "bad integer in %s" key

  let flt cur key =
    match Int64.of_string_opt (field cur key) with
    | Some bits -> Int64.float_of_bits bits
    | None -> malformed "bad float bits in %s" key

  let read cur : Exec.result =
    let cycles = flt cur "cycles" in
    let barrier_cycles = flt cur "barrier" in
    let nphases = int cur "phases" in
    if nphases < 0 || nphases > 1_000_000 then malformed "phase count";
    let phase_cycles = Array.init nphases (fun _ -> flt cur "p") in
    let total_refs = int cur "refs" in
    let total_misses = int cur "misses" in
    let cold_misses = int cur "cold" in
    let tlb_misses = int cur "tlb" in
    let nprocs = int cur "procs" in
    if nprocs < 0 || nprocs > 1_000_000 then malformed "proc count";
    let proc_misses = Array.init nprocs (fun _ -> int cur "m") in
    if next cur <> "end" then malformed "missing end";
    {
      Exec.cycles;
      phase_cycles;
      barrier_cycles;
      total_refs;
      total_misses;
      cold_misses;
      tlb_misses;
      proc_misses;
    }
end

module Store = struct
  type t = {
    sdir : string;
    mu : Mutex.t;
    mutable lookups : int;
    mutable shits : int;
  }

  let default_dir () =
    match Sys.getenv_opt "LF_CACHE_DIR" with
    | Some d when d <> "" -> d
    | _ -> "_lf_cache"

  let rec mkdir_p d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let open_ ?dir () =
    let sdir = match dir with Some d -> d | None -> default_dir () in
    mkdir_p sdir;
    { sdir; mu = Mutex.create (); lookups = 0; shits = 0 }

  let dir t = t.sdir
  let ext = ".lfres"
  let path t digest = Filename.concat t.sdir (digest ^ ext)

  (* Every request is a pure simulation: its observables are a
     deterministic function of the request, so an entry can be replayed
     on any host at any time.  Measured wall-clock stays out by type:
     native timings ({!Lf_native.Native.timing}) are never an
     [Exec.result] under a digest, and the [wall_s] of a batch outcome
     is measured around the store, outside {!render} (warm hits report
     0.0, not a replayed stale timing).

     Entry format: one observable per line, floats as the decimal
     rendering of their IEEE-754 bits so the round trip is bit-exact.
     Readers parse strictly and treat any anomaly as a miss. *)

  let render (r : Sim.request) digest (res : Exec.result) =
    let b = Buffer.create 256 in
    Printf.bprintf b "lfres1 %s\ndigest %s\n" Sim.version_salt digest;
    let fps = Sim.Fingerprint.of_request r in
    Printf.bprintf b "fps %d\n" (List.length fps);
    List.iter (fun (n, v) -> Printf.bprintf b "f %s %s\n" n v) fps;
    Printf.bprintf b "mode %s\n" (Sim.mode_to_string r.Sim.mode);
    Result_lines.add b res;
    Buffer.contents b

  let parse digest text : Exec.result =
    let cur = Result_lines.cursor text in
    let field = Result_lines.field cur in
    let bad what = raise (Result_lines.Malformed what) in
    if field "lfres1" <> Sim.version_salt then bad "stale salt";
    if field "digest" <> digest then bad "digest";
    (* fp lines are metadata for stats: a digest match already implies
       the fingerprints match (they are folded into the digest), so the
       values are consumed, not checked. *)
    let nfps = Result_lines.int cur "fps" in
    if nfps < 0 || nfps > 64 then bad "fingerprint count";
    for _ = 1 to nfps do ignore (field "f") done;
    if Result.is_error (Sim.mode_of_string (field "mode")) then bad "mode";
    Result_lines.read cur

  let read_file p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  let lookup t (r : Sim.request) =
    let digest = Sim.digest r in
    let res =
      match read_file (path t digest) with
      | exception _ -> None
      | text -> ( try Some (parse digest text) with _ -> None)
    in
    Mutex.lock t.mu;
    t.lookups <- t.lookups + 1;
    if res <> None then t.shits <- t.shits + 1;
    Mutex.unlock t.mu;
    res

  let add t (r : Sim.request) (res : Exec.result) =
    let digest = Sim.digest r in
    match Filename.temp_file ~temp_dir:t.sdir "lfres-" ".tmp" with
    | exception _ -> false
    | tmp -> (
        match
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (render r digest res));
          Sys.rename tmp (path t digest)
        with
        | () -> true
        | exception _ ->
            (try Sys.remove tmp with _ -> ());
            false)

  type stats = { entries : int; bytes : int; lookups : int; hits : int }

  let entries t =
    match Sys.readdir t.sdir with
    | exception _ -> []
    | files ->
        Array.to_list files
        |> List.filter_map (fun f ->
               if Filename.check_suffix f ext then
                 let p = Filename.concat t.sdir f in
                 match Unix.stat p with
                 | exception _ -> None
                 | st -> Some (p, st.Unix.st_size, st.Unix.st_mtime)
               else None)

  let stats t =
    let es = entries t in
    Mutex.lock t.mu;
    let lookups = t.lookups and hits = t.shits in
    Mutex.unlock t.mu;
    {
      entries = List.length es;
      bytes = List.fold_left (fun a (_, sz, _) -> a + sz) 0 es;
      lookups;
      hits;
    }

  (* Fingerprint metadata of one entry, straight off the header lines:
     None for entries predating the fp lines or otherwise unreadable. *)
  let entry_fingerprints text =
    match String.split_on_char '\n' text with
    | _salt :: _digest :: fps :: rest -> (
        let pfx = "fps " in
        let pl = String.length pfx in
        if String.length fps <= pl || String.sub fps 0 pl <> pfx then None
        else
          match int_of_string_opt (String.sub fps pl (String.length fps - pl))
          with
          | None -> None
          | Some n when n < 0 || n > 64 -> None
          | Some n -> (
              let rec take k lines acc =
                if k = 0 then Some (List.rev acc)
                else
                  match lines with
                  | l :: tl when String.length l > 2 && String.sub l 0 2 = "f "
                    -> (
                      let body = String.sub l 2 (String.length l - 2) in
                      match String.index_opt body ' ' with
                      | None -> None
                      | Some i ->
                          take (k - 1) tl
                            ((String.sub body 0 i,
                              String.sub body (i + 1)
                                (String.length body - i - 1))
                            :: acc))
                  | _ -> None
              in
              take n rest []))
    | _ -> None

  type fingerprint_stats = {
    fp_live : (string * string) list;
    fp_counts : ((string * string) * int) list;
    fp_stale : int;
    fp_scanned : int;
    fp_unreadable : int;
  }

  let fingerprint_stats t =
    let live = Sim.Fingerprint.all () in
    let counts = Hashtbl.create 16 in
    let stale = ref 0 and scanned = ref 0 and unreadable = ref 0 in
    List.iter
      (fun (p, _, _) ->
        incr scanned;
        match read_file p with
        | exception _ -> incr unreadable
        | text -> (
            match entry_fingerprints text with
            | None -> incr unreadable
            | Some fps ->
                let is_stale =
                  List.exists
                    (fun (n, v) ->
                      match List.assoc_opt n live with
                      | Some lv -> lv <> v
                      | None -> true)
                    fps
                in
                if is_stale then incr stale;
                List.iter
                  (fun fp ->
                    Hashtbl.replace counts fp
                      (1 + Option.value ~default:0 (Hashtbl.find_opt counts fp)))
                  fps))
      (entries t);
    let fp_counts =
      Hashtbl.fold (fun fp n acc -> (fp, n) :: acc) counts []
      |> List.sort compare
    in
    {
      fp_live = live;
      fp_counts;
      fp_stale = !stale;
      fp_scanned = !scanned;
      fp_unreadable = !unreadable;
    }

  let gc ~max_bytes t =
    (* newest-first: keep entries while they fit, drop the stale tail *)
    let es =
      List.sort (fun (_, _, a) (_, _, b) -> compare b a) (entries t)
    in
    let removed = ref 0 and kept = ref 0 in
    List.iter
      (fun (p, sz, _) ->
        if !kept + sz <= max_bytes then kept := !kept + sz
        else if (try Sys.remove p; true with _ -> false) then incr removed)
      es;
    !removed

  let clear t =
    let removed = ref 0 in
    List.iter
      (fun (p, _, _) ->
        if (try Sys.remove p; true with _ -> false) then incr removed)
      (entries t);
    !removed
end

type failure = Timed_out of float | Crashed of string

type outcome = {
  request : Sim.request;
  rdigest : string;
  result : (Exec.result, failure) Stdlib.result;
  from_store : bool;
  wall_s : float;
}

type summary = {
  total : int;
  unique : int;
  hits : int;
  computed : int;
  failed : int;
  wall_s : float;
}

let try_store ?scope st req =
  match Store.lookup st req with
  | Some res ->
      note_hit scope;
      Some res
  | None -> None

(* One memoised handle per resolved store root, so every consumer of
   the same Run_opts policy (CLI, serve workers, tests) shares a handle
   and its lookup/hit stats.  Policies name roots, never handles. *)
let handles : (string, Store.t) Hashtbl.t = Hashtbl.create 4
let handles_mu = Mutex.create ()

let store_of_opts (o : Run_opts.t) =
  match o.Run_opts.store with
  | Run_opts.Store_off -> None
  | Store_in dir | Store_cold dir ->
      let root =
        match dir with Some d -> d | None -> Store.default_dir ()
      in
      Mutex.lock handles_mu;
      let st =
        match Hashtbl.find_opt handles root with
        | Some st -> st
        | None ->
            let st = Store.open_ ~dir:root () in
            Hashtbl.add handles root st;
            st
      in
      Mutex.unlock handles_mu;
      Some st

let compute_one ?store ?scope ?timeout_s req =
  let t0 = Unix.gettimeofday () in
  match Exec.run_opts (Exec.opts ~jobs:1 ()) req with
  | exception e -> (Error (Crashed (Printexc.to_string e)), Unix.gettimeofday () -. t0)
  | res -> (
      let dt = Unix.gettimeofday () -. t0 in
      match timeout_s with
      | Some budget when dt > budget -> (Error (Timed_out dt), dt)
      | _ ->
          Option.iter (fun st -> ignore (Store.add st req res)) store;
          note_computed scope;
          (Ok res, dt))

let run_with ?pool ?scope (o : Run_opts.t) requests =
  let t0 = Unix.gettimeofday () in
  let store = store_of_opts o and cold = Run_opts.is_cold o in
  let timeout_s = o.Run_opts.timeout_s in
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let digests = Array.map Sim.digest reqs in
  (* dedup: map each request to the first index with its digest *)
  let first = Hashtbl.create (max 16 n) in
  let rep = Array.init n (fun i ->
      match Hashtbl.find_opt first digests.(i) with
      | Some j -> j
      | None -> Hashtbl.add first digests.(i) i; i)
  in
  let uniques = ref [] in
  Array.iteri (fun i j -> if i = j then uniques := i :: !uniques) rep;
  let uniques = Array.of_list (List.rev !uniques) in
  (* answer what the store can; collect the rest for computation *)
  let results :
      ((Exec.result, failure) Stdlib.result * bool * float) option array =
    Array.make n None
  in
  let to_compute = ref [] in
  Array.iter
    (fun i ->
      let hit =
        if cold then None
        else
          Option.bind store (fun st -> Store.lookup st reqs.(i))
      in
      match hit with
      | Some res ->
          note_hit scope;
          results.(i) <- Some (Ok res, true, 0.0)
      | None -> to_compute := i :: !to_compute)
    uniques;
  let to_compute = Array.of_list (List.rev !to_compute) in
  let m = Array.length to_compute in
  let job k =
    let i = to_compute.(k) in
    (* inner runs stay serial: the batch layer owns the host domains *)
    let r, dt = compute_one ?store ?scope ?timeout_s reqs.(i) in
    results.(i) <- Some (r, false, dt)
  in
  let jobs = min (Run_opts.jobs_or_default o) m in
  (if m > 0 then
     if jobs <= 1 then
       for k = 0 to m - 1 do job k done
     else
       match pool with
       | Some p -> Pool.dynamic_for p ~lo:0 ~hi:(m - 1) job
       | None ->
           Pool.with_pool jobs (fun p ->
               Pool.dynamic_for p ~lo:0 ~hi:(m - 1) job));
  let outcomes =
    Array.init n (fun i ->
        let result, from_store, wall_s =
          match results.(rep.(i)) with
          | Some x -> x
          | None -> (Error (Crashed "batch: job never ran"), false, 0.0)
        in
        (* repeats share the representative's result but report no wall *)
        let wall_s = if i = rep.(i) then wall_s else 0.0 in
        { request = reqs.(i); rdigest = digests.(i); result; from_store;
          wall_s })
  in
  let hits = ref 0 and computed = ref 0 and failed = ref 0 in
  Array.iter
    (fun i ->
      match results.(i) with
      | Some (Ok _, true, _) -> incr hits
      | Some (Ok _, false, _) -> incr computed
      | Some (Error _, _, _) | None -> incr failed)
    uniques;
  let summary =
    {
      total = n;
      unique = Array.length uniques;
      hits = !hits;
      computed = !computed;
      failed = !failed;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  (outcomes, summary)

let results_exn outcomes =
  Array.map
    (fun o ->
      match o.result with
      | Ok r -> r
      | Error (Timed_out dt) ->
          Fmt.failwith "batch: request %s timed out (%.2fs)" o.rdigest dt
      | Error (Crashed msg) ->
          Fmt.failwith "batch: request %s failed: %s" o.rdigest msg)
    outcomes

let run_one_with ?pool ?scope (o : Run_opts.t) req =
  let store = store_of_opts o in
  let compute () =
    let res = Exec.run_opts (Run_opts.exec ?pool o) req in
    note_computed scope;
    Option.iter (fun st -> ignore (Store.add st req res)) store;
    res
  in
  match o.Run_opts.sink with
  | Some _ ->
      (* an instrumented run always computes: a replayed result cannot
         populate the sink.  Persist it for future sink-less hits. *)
      compute ()
  | None -> (
      let hit =
        if Run_opts.is_cold o then None
        else Option.bind store (fun st -> Store.lookup st req)
      in
      match hit with
      | Some res ->
          note_hit scope;
          res
      | None -> compute ())

let pp_summary ppf s =
  Fmt.pf ppf "%d request%s (%d unique): %d hit%s, %d computed%s in %.2fs"
    s.total
    (if s.total = 1 then "" else "s")
    s.unique s.hits
    (if s.hits = 1 then "" else "s")
    s.computed
    (if s.failed = 0 then "" else Printf.sprintf ", %d FAILED" s.failed)
    s.wall_s
