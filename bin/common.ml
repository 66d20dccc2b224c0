(* Cmdliner terms and converters shared by every lfc subcommand.

   Grew out of bin/lfc.ml, where each subcommand redefined its own
   copies of --jobs/--engine/--machine/--layout and the associated
   string converters; new subcommands pull the shared vocabulary from
   here. *)

module Ir = Lf_ir.Ir
module Dep = Lf_dep.Dep
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim

open Cmdliner

(* --- kernels -------------------------------------------------------- *)

let fig9_program n =
  let i o = Ir.av ~c:o "i" in
  let nest nid out rhs =
    {
      Ir.nid;
      levels = [ { Ir.lvar = "i"; lo = 1; hi = n - 2; parallel = true } ];
      body = [ Ir.stmt (Ir.aref out [ i 0 ]) rhs ];
    }
  in
  let r name o = Ir.Read (Ir.aref name [ i o ]) in
  {
    Ir.pname = "fig9";
    decls =
      List.map (fun a -> { Ir.aname = a; extents = [ n ] })
        [ "a"; "b"; "c"; "d" ];
    nests =
      [
        nest "L1" "a" (r "b" 0);
        nest "L2" "c" (Ir.Bin (Add, r "a" 1, r "a" (-1)));
        nest "L3" "d" (Ir.Bin (Add, r "c" 1, r "c" (-1)));
      ];
  }

let program_of_kernel name n =
  match name with
  | "ll18" -> Ok (Lf_kernels.Ll18.program ~n ())
  | "calc" -> Ok (Lf_kernels.Calc.program ~n ())
  | "filter" -> Ok (Lf_kernels.Filter.program ~rows:n ~cols:n ())
  | "jacobi" -> Ok (Lf_kernels.Jacobi.program ~n ())
  | "fig9" -> Ok (fig9_program n)
  | path when Sys.file_exists path -> (
    (* a source file in the front-end language *)
    match Lf_front.Parse.program_of_file path with
    | p -> Ok p
    | exception Lf_front.Parse.Syntax_error m ->
      Error (Printf.sprintf "%s: syntax error: %s" path m)
    | exception Ir.Invalid m ->
      Error (Printf.sprintf "%s: invalid program: %s" path m))
  | _ ->
    Error
      (Printf.sprintf
         "unknown kernel %s (try ll18, calc, filter, jacobi, fig9, or a \
          .loop source file)" name)

let depth_of p name =
  if name = "jacobi" then min 2 (Dep.max_parallel_depth p)
  else if Sys.file_exists name then max 1 (min 2 (Dep.max_parallel_depth p))
  else 1

let with_program name n f =
  match program_of_kernel name n with
  | Error m -> `Error (false, m)
  | Ok p -> f p

(* --- shared terms ---------------------------------------------------- *)

let kernel_arg =
  let doc = "Kernel: ll18, calc, filter, jacobi, fig9, or a .loop file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

let size_arg =
  let doc = "Array size per dimension." in
  Arg.(value & opt int 128 & info [ "size"; "n" ] ~docv:"N" ~doc)

let procs_arg =
  let doc = "Number of processors." in
  Arg.(value & opt int 4 & info [ "procs"; "p" ] ~docv:"P" ~doc)

let strip_arg =
  let doc = "Strip-mining factor." in
  Arg.(value & opt int 16 & info [ "strip" ] ~docv:"S" ~doc)

let steps_arg =
  let doc = "Time steps (repetitions of the whole schedule)." in
  Arg.(value & opt int 1 & info [ "steps" ] ~docv:"T" ~doc)

let machine_arg =
  let doc = "Machine model: ksr2 or convex." in
  Arg.(
    value & opt string "convex" & info [ "machine"; "m" ] ~docv:"MACHINE" ~doc)

let layout_arg =
  let doc = "Memory layout: partition, contiguous, or pad:N." in
  Arg.(value & opt string "partition" & info [ "layout" ] ~docv:"LAYOUT" ~doc)

let jobs_arg =
  let doc =
    "Host domains for the simulation engine (default from $(b,LF_JOBS), \
     else 1 = serial; 0 or $(b,auto) uses every core).  The simulated \
     result is bit-identical for every value."
  in
  Arg.(value & opt (some string) None & info [ "jobs"; "j" ] ~docv:"J" ~doc)

let engine_arg =
  let doc =
    "Simulation engine: $(b,runs) (batched run-compressed replay, the \
     default), $(b,miss-only) (scalar address replay), or $(b,full) \
     (interpret values too).  All three produce bit-identical \
     observables; they differ only in wall clock."
  in
  Arg.(value & opt string "runs" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON instead of the table." in
  Arg.(value & flag & info [ "json" ] ~doc)

let cold_arg =
  let doc =
    "Ignore persisted results in the store (recompute; fresh results \
     are still persisted)."
  in
  Arg.(value & flag & info [ "cold" ] ~doc)

let store_dir_arg =
  let doc =
    "Result-store directory (default $(b,LF_CACHE_DIR), else _lf_cache)."
  in
  Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR" ~doc)

let queue_dir_arg =
  let doc =
    "Work-queue directory shared by the sweep enqueuer and workers \
     (default $(b,LF_QUEUE_DIR), else _lf_queue)."
  in
  Arg.(value & opt (some string) None & info [ "queue" ] ~docv:"DIR" ~doc)

let fingerprint_arg =
  let doc =
    "Override one module fingerprint, $(b,MODULE=VALUE) (repeatable; \
     modules: ir, schedule, derive, partition, cache, machine).  \
     Changes the digests of exactly the requests depending on that \
     module — the incremental-invalidation lever."
  in
  Arg.(
    value & opt_all string [] & info [ "fingerprint" ] ~docv:"MODULE=VALUE" ~doc)

let socket_arg =
  let doc =
    "Unix-domain socket of the simulation service (default \
     $(b,LF_SERVE_SOCKET), else _lf_serve.sock)."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let timeout_arg =
  let doc = "Per-request wall-clock budget in seconds (batch layer)." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

(* --- converters ------------------------------------------------------ *)

let machine_of = function
  | "ksr2" -> Ok Machine.ksr2
  | "convex" -> Ok Machine.convex
  | m -> Error ("unknown machine " ^ m)

(* --jobs wins.  Without it a set LF_JOBS must parse: Exec.default_jobs
   would read a malformed value as serial.  This is the one LF_JOBS
   check of every subcommand that runs work locally. *)
let apply_jobs = function
  | None -> (
    match Sys.getenv_opt "LF_JOBS" with
    | None | Some "" -> Ok ()
    | Some s -> (
      match Exec.jobs_of_string s with
      | Ok _ -> Ok ()
      | Error e -> Error ("LF_JOBS=" ^ e)))
  | Some s -> (
    match Exec.jobs_of_string s with
    | Ok j -> Ok (Exec.set_default_jobs j)
    | Error e -> Error ("bad --jobs value " ^ e))

let mode_of s =
  match Sim.mode_of_string s with
  | Ok m -> Ok m
  | Error _ -> Error ("unknown engine " ^ s ^ " (try runs, miss-only, full)")

let layout_of spec machine (p : Ir.program) =
  match spec with
  | "partition" ->
    Ok
      (Partition.cache_partitioned
         ~cache:
           {
             Partition.capacity =
               machine.Machine.cache.Lf_cache.Cache.capacity;
             line = machine.Machine.cache.Lf_cache.Cache.line;
             assoc = machine.Machine.cache.Lf_cache.Cache.assoc;
           }
         p.Ir.decls)
  | "contiguous" -> Ok (Partition.contiguous p.Ir.decls)
  | s when String.length s > 4 && String.sub s 0 4 = "pad:" -> (
    match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
    | Some pad -> Ok (Partition.padded ~pad p.Ir.decls)
    | None -> Error ("bad pad amount in " ^ s))
  | s -> Error ("unknown layout " ^ s)

let store_of dir = Lf_batch.Batch.Store.open_ ?dir ()

let queue_dir_of dir =
  match dir with
  | Some d -> d
  | None -> (
    match Sys.getenv_opt "LF_QUEUE_DIR" with
    | Some d when d <> "" -> d
    | _ -> "_lf_queue")

let queue_of dir = Lf_queue.Queue.open_ ~dir:(queue_dir_of dir)

let apply_fingerprints specs =
  let rec go = function
    | [] -> Ok ()
    | s :: tl -> (
      match Sim.Fingerprint.set_spec s with
      | Ok () -> go tl
      | Error _ as e -> e)
  in
  go specs

(* --- unified request options ----------------------------------------- *)

module Run_opts = Lf_batch.Run_opts

(* The one options bundle every execution subcommand (simulate, run,
   tune, profile, sweep, trace, transform, pipeline) shares: --jobs/
   --engine/--cold/--store-dir/--timeout lowered onto a Run_opts.t,
   environment defaults (LF_ENGINE, LF_STORE, LF_COLD, LF_TIMEOUT_S;
   LF_JOBS validated by apply_jobs) applied first so explicit flags
   win.  --jobs is applied as a side effect through
   Exec.set_default_jobs — the options' [jobs] field stays [None] so
   every consumer (batch, serve, queue, bench) keeps deferring to the
   same source of truth. *)

let engine_opt_arg =
  let doc =
    "Simulation engine: $(b,runs) (batched run-compressed replay, the \
     default), $(b,miss-only) (scalar address replay), or $(b,full) \
     (interpret values too).  All three produce bit-identical \
     observables; they differ only in wall clock.  Defaults from \
     $(b,LF_ENGINE)."
  in
  Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE" ~doc)

let run_opts_of jobs engine cold store_dir timeout =
  let ( let* ) = Result.bind in
  let* () = apply_jobs jobs in
  let* t = Run_opts.of_env () in
  let* t =
    match engine with
    | None -> Ok t
    | Some e -> Result.map (fun m -> Run_opts.with_engine m t) (mode_of e)
  in
  let t =
    match store_dir with
    | None -> t
    | Some d ->
      (* an explicit root keeps whatever cold/warm polarity is set *)
      Run_opts.with_store
        (if Run_opts.is_cold t then Run_opts.Store_cold (Some d)
         else Run_opts.Store_in (Some d))
        t
  in
  let t = if cold then Run_opts.cold t else t in
  match timeout with
  | None -> Ok t
  | Some s when s > 0.0 -> Ok (Run_opts.with_timeout s t)
  | Some s ->
    Error (Printf.sprintf "bad --timeout value %g (want positive seconds)" s)

let run_opts_term =
  Cmdliner.Term.(
    const run_opts_of $ jobs_arg $ engine_opt_arg $ cold_arg $ store_dir_arg
    $ timeout_arg)

(* Unpack the bundle inside a `ret`-style subcommand body. *)
let with_run_opts opts_result f =
  match opts_result with Error m -> `Error (false, m) | Ok opts -> f opts
