(* lfc: command-line front end to the loop-fusion "compiler".

   Subcommands:
     lfc analyze  <kernel>   dependence multigraph + doall verification
     lfc derive   <kernel>   shift-and-peel amounts (Table 2)
     lfc emit     <kernel>   generated fused code (Figures 11/12/16)
     lfc simulate <kernel>   run on the simulated KSR2/Convex
     lfc run      <kernel>   execute natively on the host's cores (lf_native)
     lfc trace    <trace>    run a lazy whole-array trace: fuse the DAG,
                             prove bit-identity, execute sim or native
     lfc transform <kernel> <script.lft>  apply a transformation script
     lfc verify   <kernel>   check fused execution against the reference
     lfc profile  --kernel K simulate with event counters (lf_obs)
     lfc tune     --kernel K autotune fusion/strip/layout on the simulator
                             (--objective wallclock tunes on measured time)
     lfc cache    stats|gc|clear  manage the persistent result store

   Kernels: ll18, calc, filter, jacobi, fig9 (tune also accepts the
   application models tomcatv, hydro2d, spem).

   Shared argument vocabulary (--jobs, --engine, --machine, --layout,
   --json, --cold, ...) lives in bin/common.ml.  Simulating subcommands
   build Lf_machine.Sim.request values and execute them through
   Lf_batch.Batch, so identical configurations are answered from the
   on-disk result store under _lf_cache/. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Dep = Lf_dep.Dep
module Derive = Lf_core.Derive
module Schedule = Lf_core.Schedule
module Codegen = Lf_core.Codegen
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch
module Apps = Lf_kernels.Apps
module Tune = Lf_tune.Tune
module TSearch = Lf_tune.Search
module TCost = Lf_tune.Cost
module Native = Lf_native.Native
module Bench_timer = Lf_native.Bench_timer

open Cmdliner
open Common

(* --- analyze ------------------------------------------------------- *)

let analyze kernel n =
  with_program kernel n (fun p ->
      Fmt.pr "%a@." Ir.pp_program p;
      (match Dep.verify_program p with
      | Ok () -> Fmt.pr "doall verification: all parallel levels are valid@."
      | Error m -> Fmt.pr "doall verification FAILED: %s@." m);
      let depth = depth_of p kernel in
      let g = Dep.build ~depth p in
      Fmt.pr "@.dependence chain multigraph (depth %d, %d edges):@." depth
        (List.length g.Dep.edges);
      List.iter (fun e -> Fmt.pr "  %a@." Dep.pp_edge e) g.Dep.edges;
      `Ok ())

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print the program and its dependence multigraph")
    Term.(ret (const analyze $ kernel_arg $ size_arg))

(* --- derive -------------------------------------------------------- *)

let derive kernel n =
  with_program kernel n (fun p ->
      let depth = depth_of p kernel in
      match Derive.of_program ~depth p with
      | exception Derive.Not_applicable m -> `Error (false, m)
      | d ->
        Fmt.pr "%a" Derive.pp d;
        Fmt.pr "iteration count threshold N_t:";
        for dim = 0 to depth - 1 do
          Fmt.pr " %d" (Derive.threshold d ~dim)
        done;
        Fmt.pr "@.";
        `Ok ())

let derive_cmd =
  Cmd.v
    (Cmd.info "derive" ~doc:"Derive shift-and-peel amounts (paper Table 2)")
    Term.(ret (const derive $ kernel_arg $ size_arg))

(* --- emit ---------------------------------------------------------- *)

let method_arg =
  let doc = "Code generation method: direct, strip or multidim." in
  Arg.(value & opt string "strip" & info [ "method" ] ~docv:"M" ~doc)

let emit kernel n method_ strip =
  with_program kernel n (fun p ->
      let depth = depth_of p kernel in
      let d = Derive.of_program ~depth p in
      match method_ with
      | "direct" -> (
        match Codegen.direct_to_string p d with
        | exception Codegen.Unsupported m -> `Error (false, m)
        | s ->
          Fmt.pr "%s@." s;
          `Ok ())
      | "strip" -> (
        (* multidim programs dispatch to the multidim renderer *)
        match Codegen.strip_mined_to_string ~strip p d with
        | exception Codegen.Unsupported m -> `Error (false, m)
        | s ->
          Fmt.pr "%s@." s;
          `Ok ())
      | "multidim" ->
        Fmt.pr "%s@." (Codegen.multidim_to_string ~strip p d);
        `Ok ()
      | m -> `Error (false, "unknown method " ^ m))

let emit_cmd =
  Cmd.v
    (Cmd.info "emit" ~doc:"Emit fused code (Figures 11, 12, 16)")
    Term.(ret (const emit $ kernel_arg $ size_arg $ method_arg $ strip_arg))

(* --- simulate ------------------------------------------------------ *)

let simulate kernel n machine_name procs strip layout_spec opts_result =
  with_program kernel n (fun p ->
      with_run_opts opts_result (fun opts ->
      match machine_of machine_name with
      | Error m -> `Error (false, m)
      | Ok machine -> (
        match layout_of layout_spec machine p with
        | Error m -> `Error (false, m)
        | Ok layout -> (
          let mode = opts.Run_opts.engine in
          let requests =
            [
              Sim.unfused ~layout ~mode ~machine ~nprocs:procs p;
              Sim.fused ~layout ~mode ~machine ~nprocs:procs ~strip p;
            ]
          in
          let outcomes, summary = Batch.run_with opts requests in
          match Batch.results_exn outcomes with
          | exception Failure m -> `Error (false, m)
          | [| u; f |] ->
            Fmt.pr "%s, %d processors, layout %s@." machine.Machine.mname
              procs layout_spec;
            Fmt.pr "%-10s %14s %12s %12s  %s@." "version" "cycles" "misses"
              "proc0-misses" "source";
            let source (o : Batch.outcome) =
              if o.Batch.from_store then "store" else "computed"
            in
            Fmt.pr "%-10s %14.4e %12d %12d  %s@." "unfused" u.Exec.cycles
              u.Exec.total_misses (Exec.proc0_misses u) (source outcomes.(0));
            Fmt.pr "%-10s %14.4e %12d %12d  %s@." "fused" f.Exec.cycles
              f.Exec.total_misses (Exec.proc0_misses f) (source outcomes.(1));
            Fmt.pr "fusion gain: %+.1f%%@."
              (100.0 *. ((u.Exec.cycles /. f.Exec.cycles) -. 1.0));
            Fmt.pr "store: %a@." Batch.pp_summary summary;
            `Ok ()
          | _ -> assert false))))

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate fused vs unfused on a machine model")
    Term.(
      ret
        (const simulate $ kernel_arg $ size_arg $ machine_arg $ procs_arg
       $ strip_arg $ layout_arg $ run_opts_term))

(* --- verify -------------------------------------------------------- *)

let verify kernel n procs strip =
  with_program kernel n (fun p ->
      let depth = depth_of p kernel in
      let d = Derive.of_program ~depth p in
      let reference = Interp.run p in
      let ok =
        List.for_all
          (fun order ->
            let sched = Schedule.fused ~nprocs:procs ~strip ~derive:d p in
            Interp.equal reference (Schedule.execute ~order sched))
          [ Schedule.Natural; Schedule.Reversed; Schedule.Interleaved ]
      in
      Fmt.pr "fused execution (P=%d, strip=%d, all interleavings tested): %s@."
        procs strip
        (if ok then "bit-identical to the serial reference" else "MISMATCH");
      if ok then `Ok () else `Error (false, "verification failed"))

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify fused execution against the reference")
    Term.(ret (const verify $ kernel_arg $ size_arg $ procs_arg $ strip_arg))

(* --- run ----------------------------------------------------------- *)

let backend_arg =
  let doc =
    "Execution backend: $(b,native) (real OCaml domains on the host's \
     cores, measured wall-clock — the default) or $(b,sim) (the cycle \
     simulator, for side-by-side comparison)."
  in
  Arg.(value & opt string "native" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let reps_arg =
  let doc = "Timed repetitions (native backend)." in
  Arg.(
    value
    & opt int Bench_timer.default_policy.Bench_timer.repetitions
    & info [ "reps" ] ~docv:"K" ~doc)

let warmup_arg =
  let doc = "Untimed warmup repetitions (native backend)." in
  Arg.(
    value
    & opt int Bench_timer.default_policy.Bench_timer.warmup
    & info [ "warmup" ] ~docv:"W" ~doc)

let run_unfused_arg =
  let doc = "Alias for --schedule unfused." in
  Arg.(value & flag & info [ "unfused" ] ~doc)

let run_schedule_arg =
  let doc =
    "Schedule to execute: $(b,fused) (shift-and-peel, the default), \
     $(b,unfused) (one phase per nest), or $(b,wavefront) (tiled \
     anti-diagonals; --strip is the tile size)."
  in
  Arg.(value & opt string "fused" & info [ "schedule" ] ~docv:"SCHED" ~doc)

let run_script_arg =
  let doc =
    "Build the schedule from a .lft transformation script (the steps are \
     legality-checked and realized exactly as `lfc transform --simulate` \
     does) instead of --schedule."
  in
  Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE.lft" ~doc)

(* Execute a schedule for real: every native run is verified
   bit-identical to the serial reference interpreter before it is
   timed, and a mismatch (or an out-of-range subscript) is a hard
   error — measured numbers for wrong answers are worthless. *)
let run_native kernel n p sched variant procs strip steps reps warmup json =
  (match Native.verify ~steps sched with
  | Error m -> `Error (false, m)
  | Ok () ->
    let policy =
      { Bench_timer.default_policy with warmup; repetitions = reps }
    in
    let t = Native.measure ~policy ~steps sched in
    let m = t.Native.t_measure in
    if json then
      Fmt.pr
        "{\"backend\": \"native\", \"kernel\": \"%s\", \"variant\": \
         \"%s\", \"n\": %d, \"procs\": %d, \"strip\": %d, \"steps\": %d, \
         \"bit_identical\": true, \"min_s\": %.9f, \"median_s\": %.9f, \
         \"reps\": %d, \"kept\": %d, \"warmup\": %d, \"checksum\": %.17g}@."
        (String.escaped kernel) variant n procs strip steps
        m.Bench_timer.min_s m.Bench_timer.median_s
        (Array.length m.Bench_timer.samples) m.Bench_timer.kept
        policy.Bench_timer.warmup t.Native.t_checksum
    else begin
      Fmt.pr "%s %s (n=%d) native on %d domains, strip %d, %d step(s)@."
        variant p.Ir.pname n procs strip steps;
      Fmt.pr "bit-identity vs reference interpreter: OK@.";
      Fmt.pr "measured: %a@." Bench_timer.pp m;
      Fmt.pr "checksum %.17g@." t.Native.t_checksum
    end;
    `Ok ())

let run_sim kernel n p sched variant machine_name procs opts json =
  ignore kernel;
  match machine_of machine_name with
  | Error m -> `Error (false, m)
  | Ok machine ->
    let req =
      Sim.of_schedule ~mode:opts.Run_opts.engine ~machine sched
    in
    let r = Batch.run_one_with opts req in
    if json then
      Fmt.pr
        "{\"backend\": \"sim\", \"kernel\": \"%s\", \"variant\": \"%s\", \
         \"n\": %d, \"procs\": %d, \"machine\": \"%s\", \"cycles\": %.17g, \
         \"barrier_cycles\": %.17g, \"misses\": %d}@."
        (String.escaped p.Ir.pname) variant n procs machine.Machine.mname
        r.Exec.cycles r.Exec.barrier_cycles r.Exec.total_misses
    else
      Fmt.pr "%s %s (n=%d) on simulated %s, %d processors: %.4e cycles, %d \
              misses@."
        variant p.Ir.pname n machine.Machine.mname procs r.Exec.cycles
        r.Exec.total_misses;
    `Ok ()

let run_exec kernel n backend machine_name procs strip steps schedule_name
    unfused script reps warmup opts_result json =
  with_program kernel n (fun p ->
      with_run_opts opts_result @@ fun opts ->
      let depth = depth_of p kernel in
      let variant = if unfused then "unfused" else schedule_name in
      let build () =
        match script with
        | Some path -> (
          let module Script = Lf_script.Script in
          let module Realize = Lf_script.Realize in
          let module Lft = Lf_front.Lft in
          match Lft.parse_file path with
          | exception Sys_error m -> Error m
          | exception (Lft.Error _ as e) ->
            Error (Option.get (Lft.error_to_string ~file:path e))
          | steps_ -> (
            match Script.run p steps_ with
            | Error e -> Error (Script.error_to_string e)
            | Ok st ->
              Ok
                ( "script:" ^ Filename.basename path,
                  Realize.schedule ~nprocs:procs st )))
        | None -> (
          match variant with
          | "unfused" -> Ok ("unfused", Schedule.unfused ~nprocs:procs p)
          | "fused" ->
            Ok
              ( "fused",
                Schedule.fused ~nprocs:procs ~strip
                  ~derive:(Derive.of_program ~depth p) p )
          | "wavefront" ->
            Ok
              ( "wavefront",
                Lf_core.Wavefront.schedule ~tile:strip ~nprocs:procs p )
          | s ->
            Error ("unknown schedule " ^ s ^ " (try fused, unfused, wavefront)"))
      in
      match build () with
      | exception Schedule.Illegal m -> `Error (false, m)
      | exception Derive.Not_applicable m -> `Error (false, m)
      | exception Invalid_argument m -> `Error (false, m)
      | Error m -> `Error (false, m)
      | Ok (variant, sched) -> (
        match backend with
        | "native" ->
          run_native kernel n p sched variant procs strip steps reps warmup
            json
        | "sim" -> (
          try run_sim kernel n p sched variant machine_name procs opts json
          with Interp.Out_of_bounds m ->
            `Error (false, "subscript out of range: " ^ m))
        | b -> `Error (false, "unknown backend " ^ b ^ " (try native, sim)")))

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a schedule (fused, unfused, wavefront, or one built by a \
          .lft script) natively on the host's cores (one domain per \
          simulated processor), verified bit-identical to the reference \
          interpreter before any timing; or on the simulator with \
          --backend sim")
    Term.(
      ret
        (const run_exec $ kernel_arg $ size_arg $ backend_arg $ machine_arg
       $ procs_arg $ strip_arg $ steps_arg $ run_schedule_arg
       $ run_unfused_arg $ run_script_arg $ reps_arg $ warmup_arg
       $ run_opts_term $ json_arg))

(* --- trace ---------------------------------------------------------- *)

module Lazy_ctx = Lf_lazy.Ctx
module Lazy_node = Lf_lazy.Node
module Lazy_plan = Lf_lazy.Plan
module Lazy_eval = Lf_lazy.Eval
module Lazy_trace = Lf_lazy.Trace

let trace_input_arg =
  let doc =
    "Recorded trace to run: a built-in workload ($(b,heat), \
     $(b,pipeline), $(b,mismatch), $(b,blur2)) or a trace file — one \
     whole-array op per line (source/fill/map/zip/force; see \
     lib/lazy/trace.mli for the grammar)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let trace_backend_arg =
  let doc =
    "Execution backend: $(b,sim) (each fused block becomes a \
     Sim.request dispatched through the batch layer and the result \
     store — the default) or $(b,native) (each block verified \
     bit-identical against the reference interpreter and timed on \
     real host domains)."
  in
  Arg.(value & opt string "sim" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let no_fuse_arg =
  let doc =
    "Disable DAG fusion: one block per recorded op (the op-at-a-time \
     baseline the bench compares against)."
  in
  Arg.(value & flag & info [ "no-fuse" ] ~doc)

let trace_require_warm_arg =
  let doc =
    "Fail unless every block request is answered by the result store \
     (the CI cold-then-warm assertion; --backend sim only)."
  in
  Arg.(value & flag & info [ "require-warm" ] ~doc)

let envs_bit_identical (a : Lazy_eval.env) (b : Lazy_eval.env) =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc ->
         acc
         &&
         match Hashtbl.find_opt b k with
         | Some v' ->
           Array.length v = Array.length v'
           && Array.for_all2
                (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                v v'
         | None -> false)
       a true

let trace_exec input n machine_name procs strip backend no_fuse require_warm
    opts_result json =
  with_run_opts opts_result @@ fun opts ->
  let loaded =
    match Lazy_trace.builtin_text input with
    | Some text -> Lazy_trace.of_string ~n text
    | None ->
      if Sys.file_exists input then Lazy_trace.load ~n input
      else
        Error
          (Printf.sprintf "unknown trace %s (builtins: %s; or a trace file)"
             input
             (String.concat ", " (List.map fst Lazy_trace.builtins)))
  in
  match loaded with
  | Error m -> `Error (false, m)
  | Ok (cx, outs) -> (
    match Lazy_ctx.plan ~fuse:(not no_fuse) ~nprocs:procs ~strip cx with
    | exception Lazy_node.Error m -> `Error (false, m)
    | plan -> (
      let blocks = plan.Lazy_plan.blocks in
      if not json then begin
        Fmt.pr "trace %s (n=%d): %d op(s) recorded, %d block(s)@." input n
          (Lazy_plan.ops plan) (List.length blocks);
        List.iter
          (fun (b : Lazy_plan.block) ->
            Fmt.pr "  block %d: %d op(s)%s -> %s@." b.Lazy_plan.b_index
              (List.length b.Lazy_plan.b_nodes)
              (if b.Lazy_plan.b_fused then " fused (shift-and-peel)" else "")
              (String.concat ", " b.Lazy_plan.b_written);
            match b.Lazy_plan.b_reason with
            | None -> ()
            | Some r ->
              Fmt.pr "    split from previous block: %a@." Lazy_plan.pp_reason
                r)
          blocks
      end;
      (* every backend first proves the plan equivalent to eager
         op-at-a-time interpretation — numbers for wrong answers are
         worthless (same discipline as `lfc run`) *)
      let reference = Lazy_eval.eager plan in
      let env = Lazy_eval.materialise plan in
      if not (envs_bit_identical reference env) then
        `Error
          ( false,
            "planned execution is not bit-identical to eager evaluation \
             (lazy-frontend bug; please report)" )
      else begin
        let checksums =
          List.map
            (fun (name, v) ->
              let cname = Lazy_plan.name_of plan v.Lazy_node.v_node in
              let a =
                match Hashtbl.find_opt env cname with
                | Some a -> a
                | None -> [||]
              in
              (name, Array.fold_left ( +. ) 0.0 a))
            outs
        in
        if not json then begin
          Fmt.pr "bit-identity planned vs eager: OK@.";
          List.iter
            (fun (name, s) -> Fmt.pr "  output %s checksum %.17g@." name s)
            checksums
        end;
        let json_blocks () =
          String.concat ", "
            (List.map
               (fun (b : Lazy_plan.block) ->
                 Printf.sprintf
                   "{\"index\": %d, \"ops\": %d, \"fused\": %b%s}"
                   b.Lazy_plan.b_index
                   (List.length b.Lazy_plan.b_nodes)
                   b.Lazy_plan.b_fused
                   (match b.Lazy_plan.b_reason with
                   | None -> ""
                   | Some r ->
                     Printf.sprintf ", \"split\": \"%s\""
                       (String.escaped
                          (Fmt.str "%a" Lazy_plan.pp_reason r))))
               blocks)
        in
        let json_checksums () =
          String.concat ", "
            (List.map
               (fun (name, s) ->
                 Printf.sprintf "{\"name\": \"%s\", \"checksum\": %.17g}"
                   (String.escaped name) s)
               checksums)
        in
        match backend with
        | "sim" -> (
          match machine_of machine_name with
          | Error m -> `Error (false, m)
          | Ok machine ->
            let outcomes, summary = Lazy_eval.simulate ~opts ~machine plan in
            let cycles = ref 0.0 and misses = ref 0 in
            Array.iteri
              (fun i (o : Batch.outcome) ->
                match o.Batch.result with
                | Error _ -> ()
                | Ok r ->
                  cycles := !cycles +. r.Exec.cycles;
                  misses := !misses + r.Exec.total_misses;
                  if not json then
                    Fmt.pr "  block %d on %s: %.4e cycles, %d misses — %s@."
                      i machine.Machine.mname r.Exec.cycles
                      r.Exec.total_misses
                      (if o.Batch.from_store then "store" else "computed"))
              outcomes;
            (match Batch.results_exn outcomes with
            | exception Failure m -> `Error (false, m)
            | _ ->
              let warm =
                Array.for_all (fun (o : Batch.outcome) -> o.Batch.from_store)
                  outcomes
              in
              if json then
                Fmt.pr
                  "{\"trace\": \"%s\", \"n\": %d, \"backend\": \"sim\", \
                   \"machine\": \"%s\", \"fused\": %b, \"blocks\": [%s], \
                   \"bit_identical\": true, \"cycles\": %.17g, \"misses\": \
                   %d, \"hits\": %d, \"computed\": %d, \"outputs\": [%s]}@."
                  (String.escaped input) n machine.Machine.mname
                  (not no_fuse) (json_blocks ()) !cycles !misses
                  summary.Batch.hits summary.Batch.computed
                  (json_checksums ())
              else begin
                Fmt.pr "total: %.4e cycles, %d misses@." !cycles !misses;
                Fmt.pr "store: %a@." Batch.pp_summary summary
              end;
              if require_warm && not warm then
                `Error
                  ( false,
                    "--require-warm: at least one block was computed, not \
                     answered by the store" )
              else `Ok ()))
        | "native" ->
          if require_warm then
            `Error (false, "--require-warm only applies to --backend sim")
          else begin
            let nenv = Lazy_eval.env_create () in
            let rec go wall = function
              | [] -> Ok wall
              | (b : Lazy_plan.block) :: tl -> (
                match
                  Native.verify ~init:(Lazy_eval.init_of nenv)
                    b.Lazy_plan.b_sched
                with
                | Error m ->
                  Error
                    (Printf.sprintf
                       "block %d bit-identity verification failed: %s"
                       b.Lazy_plan.b_index m)
                | Ok () ->
                  let t = Native.measure b.Lazy_plan.b_sched in
                  if not json then
                    Fmt.pr "  block %d native on %d domain(s): %a@."
                      b.Lazy_plan.b_index procs Bench_timer.pp
                      t.Native.t_measure;
                  Lazy_eval.advance nenv b;
                  go (wall +. t.Native.t_measure.Bench_timer.min_s) tl)
            in
            match go 0.0 blocks with
            | Error m -> `Error (false, m)
            | Ok wall ->
              if not (envs_bit_identical reference nenv) then
                `Error
                  ( false,
                    "native block stepping diverged from eager evaluation \
                     (lazy-frontend bug; please report)" )
              else begin
                if json then
                  Fmt.pr
                    "{\"trace\": \"%s\", \"n\": %d, \"backend\": \
                     \"native\", \"procs\": %d, \"fused\": %b, \"blocks\": \
                     [%s], \"bit_identical\": true, \"min_s\": %.9f, \
                     \"outputs\": [%s]}@."
                    (String.escaped input) n procs (not no_fuse)
                    (json_blocks ()) wall (json_checksums ())
                else Fmt.pr "total min-of-k wall: %.9f s@." wall;
                `Ok ()
              end
          end
        | b -> `Error (false, "unknown backend " ^ b ^ " (try sim, native)")
      end))

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a recorded whole-array operation trace through the lazy \
          frontend: partition the DAG into maximal fusible blocks \
          (shift-and-peel legality; shape mismatches and dependence \
          cycles split with typed reasons), prove the plan bit-identical \
          to eager op-at-a-time evaluation, then execute the blocks on \
          the simulator (through the batch layer and result store) or \
          natively on host domains.")
    Term.(
      ret
        (const trace_exec $ trace_input_arg $ size_arg $ machine_arg
       $ procs_arg $ strip_arg $ trace_backend_arg $ no_fuse_arg
       $ trace_require_warm_arg $ run_opts_term $ json_arg))

(* --- tune ---------------------------------------------------------- *)

let tune_kernel_arg =
  let doc =
    "Kernel or application to tune: ll18, calc, filter, jacobi, fig9, \
     tomcatv, hydro2d, spem, or a .loop file."
  in
  Arg.(value & opt string "ll18" & info [ "kernel"; "k" ] ~docv:"KERNEL" ~doc)

let tune_size_arg =
  let doc = "Array size per dimension (default 128, or 64 with --quick)." in
  Arg.(value & opt (some int) None & info [ "size"; "n" ] ~docv:"N" ~doc)

let quick_arg =
  let doc = "Reduced problem sizes for a fast run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let search_arg =
  let doc =
    "Search driver: auto, exhaustive, greedy[:budget], beam[:width]."
  in
  Arg.(value & opt string "auto" & info [ "search" ] ~docv:"DRIVER" ~doc)

let objective_arg =
  let doc =
    "What the search minimises: $(b,cycles) (simulated execution time, \
     the default) or $(b,wallclock) (measured seconds of the native \
     multicore execution — every evaluated candidate is verified \
     bit-identical to the reference interpreter and then timed on \
     --procs real domains; measured times are never persisted in the \
     result store)."
  in
  Arg.(value & opt string "cycles" & info [ "objective" ] ~docv:"OBJ" ~doc)

(* Tune every fusible sequence of an application model; the never-fused
   remainder runs unfused under both configurations, so it contributes
   the same cycles to each side of the comparison. *)
let tune_app ~driver ~objective ~opts ~machine ~nprocs (app : Apps.t) =
  let cache = TCost.create_cache () in
  Fmt.pr "autotuning %s on %s, %d processors (%d fusible sequences)@."
    app.Apps.app_name machine.Machine.mname nprocs
    (List.length app.Apps.sequences);
  Fmt.pr "  %-14s %14s %14s %8s  %s@." "sequence" "default" "tuned" "gain"
    "selected configuration";
  let tuned = ref 0.0 and dflt = ref 0.0 and failed = ref None in
  List.iter
    (fun (seq : Ir.program) ->
      match Tune.tune ~cache ~opts ~driver ~objective ~machine ~nprocs seq with
      | Error m -> if !failed = None then failed := Some (seq.Ir.pname, m)
      | Ok o ->
        tuned := !tuned +. o.TSearch.best_cost.TCost.e_cycles;
        dflt := !dflt +. o.TSearch.default_cost.TCost.e_cycles;
        Fmt.pr "  %-14s %a@." seq.Ir.pname Tune.pp_row o)
    app.Apps.sequences;
  match !failed with
  | Some (name, m) ->
    `Error (false, Printf.sprintf "tuning sequence %s failed: %s" name m)
  | None ->
    let unit_ =
      match objective with
      | TSearch.Cycles -> "cycles"
      | TSearch.Wallclock -> "s measured"
    in
    (match app.Apps.remainder with
    | None -> ()
    | Some rem ->
      (* the never-fused remainder contributes the same amount to both
         sides; price it in the objective's own unit *)
      let per_rep =
        match objective with
        | TSearch.Cycles ->
          let layout = Machine.partitioned_layout machine rem in
          let r =
            Batch.run_one_with opts
              (Sim.unfused ~layout ~mode:Sim.Run_compressed ~machine ~nprocs
                 rem)
          in
          r.Exec.cycles
        | TSearch.Wallclock ->
          let t = Native.measure (Schedule.unfused ~nprocs rem) in
          t.Native.t_measure.Bench_timer.min_s
      in
      let add = float_of_int app.Apps.remainder_reps *. per_rep in
      tuned := !tuned +. add;
      dflt := !dflt +. add;
      Fmt.pr "  %-14s %14.4e %s (never fused, x%d)@." "remainder" per_rep
        unit_ app.Apps.remainder_reps);
    let st = TCost.stats cache in
    Fmt.pr "total: default %.4e %s, tuned %.4e %s (%+.1f%%)@." !dflt unit_
      !tuned unit_
      (100.0 *. ((!dflt /. !tuned) -. 1.0));
    Fmt.pr "memo cache: %d entries, %d hits, %d cold evaluations@."
      st.TCost.entries st.TCost.hits st.TCost.misses;
    Fmt.pr "result store: %d hits, %d simulations run@." (Batch.hit_count ())
      (Batch.computed_count ());
    `Ok ()

let tune kernel size machine_name procs search objective quick opts_result =
  with_run_opts opts_result @@ fun opts ->
  (match machine_of machine_name with
  | Error m -> `Error (false, m)
  | Ok machine -> (
    match Tune.driver_of_string search with
    | Error m -> `Error (false, m)
    | Ok driver -> (
      match Tune.objective_of_string objective with
      | Error m -> `Error (false, m)
      | Ok objective -> (
      let app =
        match kernel with
        | "tomcatv" ->
          let n =
            match size with Some n -> n | None -> if quick then 65 else 513
          in
          Some (Apps.tomcatv ~n ())
        | "hydro2d" ->
          Some
            (if quick then Apps.hydro2d ~rows:80 ~cols:40 ()
             else Apps.hydro2d ())
        | "spem" ->
          Some
            (if quick then Apps.spem ~d0:16 ~d1:17 ~d2:17 ()
             else Apps.spem ())
        | _ -> None
      in
      match app with
      | Some app ->
        tune_app ~driver ~objective ~opts ~machine ~nprocs:procs app
      | None ->
        let n =
          match size with Some n -> n | None -> if quick then 64 else 128
        in
        with_program kernel n (fun p ->
            let depth = depth_of p kernel in
            Fmt.pr "autotuning %s (n=%d) on %s, %d processors%s@." kernel n
              machine.Machine.mname procs
              (match objective with
              | TSearch.Cycles -> ""
              | TSearch.Wallclock -> ", objective: measured wall-clock");
            match
              Tune.tune ~depth ~opts ~driver ~objective ~machine
                ~nprocs:procs p
            with
            | Error m -> `Error (false, m)
            | Ok o ->
              Fmt.pr "%a" Tune.pp_outcome o;
              Fmt.pr "result store: %d hits, %d simulations run@."
                (Batch.hit_count ()) (Batch.computed_count ());
              `Ok ())))))

let tune_cmd =
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Autotune the schedule variant (unfused, fused shift-and-peel — \
          plain or clustered —, wavefront, alignment+replication), strip \
          size and cache layout on the simulated machine (lf_tune); with \
          --objective wallclock, on measured native execution time")
    Term.(
      ret
        (const tune $ tune_kernel_arg $ tune_size_arg $ machine_arg
       $ procs_arg $ search_arg $ objective_arg $ quick_arg $ run_opts_term))

(* --- profile ------------------------------------------------------- *)

let profile_kernel_arg =
  let doc = "Kernel: ll18, calc, filter, jacobi, fig9, or a .loop file." in
  Arg.(value & opt string "ll18" & info [ "kernel"; "k" ] ~docv:"KERNEL" ~doc)

let by_arg =
  let doc = "Attribution grouping: array, phase, or proc." in
  Arg.(value & opt string "array" & info [ "by" ] ~docv:"GROUP" ~doc)

let trace_arg =
  let doc = "Write Chrome trace-event JSON to $(docv) (chrome://tracing)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let unfused_arg =
  let doc = "Profile the unfused schedule instead of the fused one." in
  Arg.(value & flag & info [ "unfused" ] ~doc)

(* Align the sink's layout tag with the Space.layout_to_string
   vocabulary so the recorded profile keys calibration factors. *)
let layout_tag = function "partition" -> "partitioned" | s -> s

let profile kernel n machine_name procs strip layout_spec by trace unfused
    steps opts_result =
  with_program kernel n (fun p ->
      with_run_opts opts_result (fun opts ->
      match machine_of machine_name with
      | Error m -> `Error (false, m)
      | Ok machine -> (
        match layout_of layout_spec machine p with
        | Error m -> `Error (false, m)
        | Ok layout -> (
          match
            match by with
            | "array" -> Ok Lf_obs.Obs.By_array
            | "phase" -> Ok Lf_obs.Obs.By_phase
            | "proc" -> Ok Lf_obs.Obs.By_proc
            | s -> Error ("unknown grouping " ^ s ^ " (try array, phase, proc)")
          with
          | Error m -> `Error (false, m)
          | Ok by ->
            let mode = opts.Run_opts.engine in
            let sink = Lf_obs.Obs.create ~layout:(layout_tag layout_spec) () in
            let req =
              if unfused then
                Sim.unfused ~layout ~mode ~machine ~nprocs:procs ~steps p
              else
                Sim.fused ~layout ~mode ~machine ~nprocs:procs ~strip ~steps p
            in
            (* a profiled run always computes (the sink must be
               populated) but still warms the store for sink-less
               reuse of the same request *)
            let r = Batch.run_one_with (Run_opts.with_sink sink opts) req in
            Fmt.pr "%s %s (n=%d) on %s: %d processors, layout %s, %d phases@."
              (if unfused then "unfused" else "fused")
              kernel n machine.Machine.mname procs layout_spec
              (Lf_obs.Obs.nphases sink);
            Fmt.pr "cycles %.4e (barrier %.4e), misses %d@.@." r.Exec.cycles
              r.Exec.barrier_cycles r.Exec.total_misses;
            Fmt.pr "%a" (Lf_obs.Obs.pp_table ~by) sink;
            let tot = Lf_obs.Obs.totals sink in
            Fmt.pr
              "@.conflict attribution: %d cross-array, %d self/capacity \
               (of %d non-cold misses)@."
              tot.Lf_obs.Obs.t_cross tot.Lf_obs.Obs.t_self
              (tot.Lf_obs.Obs.t_misses - tot.Lf_obs.Obs.t_cold);
            Fmt.pr "calibration factor (misses/cold) for layout %s: %.3f@."
              (Lf_obs.Obs.layout sink)
              (Lf_obs.Obs.miss_factor sink);
            (match trace with
            | None -> ()
            | Some file ->
              let oc = open_out file in
              output_string oc (Lf_obs.Obs.trace_json sink);
              close_out oc;
              Fmt.pr "trace: %d events written to %s@."
                (List.length (Lf_obs.Obs.events sink))
                file);
            `Ok ()))))

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Simulate with event counters attached: per-array/phase/processor \
          attribution tables and a Chrome trace (lf_obs)")
    Term.(
      ret
        (const profile $ profile_kernel_arg $ size_arg $ machine_arg
       $ procs_arg $ strip_arg $ layout_arg $ by_arg $ trace_arg
       $ unfused_arg $ steps_arg $ run_opts_term))

(* --- pipeline ------------------------------------------------------ *)

let pipeline kernel n procs strip opts_result =
  with_run_opts opts_result @@ fun opts ->
  with_program kernel n (fun p ->
      let module Distribute = Lf_core.Distribute in
      let module Cluster = Lf_core.Cluster in
      let module Legality = Lf_core.Legality in
      Fmt.pr "input: %d nests@." (List.length p.Ir.nests);
      Fmt.pr "plain fusion verdict: %s@."
        (Legality.verdict_to_string (Legality.classify p));
      let p = Distribute.distribute p in
      Fmt.pr "after distribution: %d nests@." (List.length p.Ir.nests);
      let gs = Cluster.groups p in
      Fmt.pr "@.fusion groups:@.%a" Cluster.pp_groups gs;
      let sched = Cluster.schedule ~nprocs:procs ~strip p gs in
      let reference = Interp.run p in
      let ok =
        List.for_all
          (fun order ->
            Interp.equal reference (Schedule.execute ~order sched))
          [ Schedule.Natural; Schedule.Reversed; Schedule.Interleaved ]
      in
      Fmt.pr "@.clustered schedule on %d processors: %s@." procs
        (if ok then "bit-identical to the serial reference" else "MISMATCH");
      (* an Explicit request: arbitrary prebuilt schedules are cacheable *)
      let r =
        Batch.run_one_with opts
          (Sim.of_schedule ~mode:opts.Run_opts.engine ~machine:Machine.convex
             sched)
      in
      Fmt.pr "simulated on %s: %.4e cycles, %d misses@."
        Machine.convex.Machine.mname r.Exec.cycles r.Exec.total_misses;
      if ok then `Ok () else `Error (false, "verification failed"))

let pipeline_cmd =
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Distribute, cluster, fuse and verify a whole sequence")
    Term.(
      ret
        (const pipeline $ kernel_arg $ size_arg $ procs_arg $ strip_arg
       $ run_opts_term))

(* --- transform ------------------------------------------------------ *)

let script_arg =
  let doc =
    "Transformation script (.lft): one step per line — fuse, fission, \
     shift_peel, strip_mine, interchange, partition, wavefront, align."
  in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"SCRIPT" ~doc)

let checkpoint_dir_arg =
  let doc =
    "Write the per-step checkpoint stream \
     ($(i,program)_NN_$(i,step).loop, 00 = input) into $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let emit_form_arg =
  let doc =
    "Output after the final step: $(b,loop) (IR + schedule annotations, \
     the default), $(b,c) (generated fused code), or $(b,none)."
  in
  Arg.(value & opt string "loop" & info [ "emit" ] ~docv:"FORM" ~doc)

let simulate_flag_arg =
  let doc =
    "Realize the scripted schedule as a Sim.request and run it through \
     the batch layer and the persistent result store."
  in
  Arg.(value & flag & info [ "simulate" ] ~doc)

let transform kernel n script_path ck_dir emit_form simulate_ machine_name
    procs opts_result =
  let module Script = Lf_script.Script in
  let module Realize = Lf_script.Realize in
  let module Lft = Lf_front.Lft in
  with_run_opts opts_result @@ fun opts ->
  with_program kernel n (fun p ->
      match machine_of machine_name with
      | Error m -> `Error (false, m)
      | Ok machine -> (
          match Lft.parse_file script_path with
          | exception Sys_error m -> `Error (false, m)
          | exception (Lft.Error _ as e) ->
            `Error
              (false, Option.get (Lft.error_to_string ~file:script_path e))
          | steps -> (
            let write_checkpoint i name st =
              match ck_dir with
              | None -> ()
              | Some dir ->
                if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
                let file =
                  Filename.concat dir
                    (Printf.sprintf "%s_%02d_%s.loop" p.Ir.pname i name)
                in
                let oc = open_out file in
                output_string oc (Script.checkpoint_to_string st);
                close_out oc;
                Fmt.pr "checkpoint %s@." file
            in
            write_checkpoint 0 "input" (Script.init p);
            match
              Script.run
                ~checkpoint:(fun i step st ->
                  write_checkpoint (i + 1) (Script.step_name step) st)
                p steps
            with
            | Error e -> `Error (false, Script.error_to_string e)
            | Ok st ->
              (* rewrites must be semantics-preserving: compare every
                 original array against the untransformed reference *)
              let reference = Interp.run p and got = Interp.run st.Script.prog in
              let same (d : Ir.decl) =
                Interp.find_array reference d.Ir.aname
                = Interp.find_array got d.Ir.aname
              in
              if not (List.for_all same p.Ir.decls) then
                `Error
                  ( false,
                    "transformed program is not bit-identical to the input \
                     (script-engine bug; please report)" )
              else begin
                Fmt.pr
                  "%d step(s) applied; semantics bit-identical to the input@."
                  (List.length steps);
                let emit_result =
                  match emit_form with
                  | "none" -> Ok ()
                  | "loop" ->
                    Fmt.pr "%s" (Script.checkpoint_to_string st);
                    Ok ()
                  | "c" ->
                    (match Realize.whole_program_derive st with
                    | Some (depth, d) ->
                      let strip =
                        Option.value st.Script.strip
                          ~default:Schedule.default_strip
                      in
                      if depth = 1 then
                        Fmt.pr "%s@."
                          (Codegen.strip_mined_to_string ~strip st.Script.prog
                             d)
                      else
                        Fmt.pr "%s@."
                          (Codegen.multidim_to_string ~strip st.Script.prog d)
                    | None -> Fmt.pr "%s" (Ir.program_to_string st.Script.prog));
                    Ok ()
                  | f -> Error ("unknown --emit form " ^ f ^ " (try loop, c, none)")
                in
                match emit_result with
                | Error m -> `Error (false, m)
                | Ok () ->
                  if not simulate_ then `Ok ()
                  else begin
                    match
                      Realize.request ~mode:opts.Run_opts.engine ~machine
                        ~nprocs:procs st
                    with
                    | exception Schedule.Illegal m ->
                      `Error (false, "scripted schedule is illegal here: " ^ m)
                    | req ->
                      if not (Sim.legal req) then
                        `Error
                          ( false,
                            "scripted schedule violates the Theorem 1 \
                             threshold for this size/processor count" )
                      else begin
                        let r = Batch.run_one_with opts req in
                        Fmt.pr
                          "simulated on %s, %d processors: %.4e cycles \
                           (barrier %.4e), %d misses@."
                          machine.Machine.mname procs r.Exec.cycles
                          r.Exec.barrier_cycles r.Exec.total_misses;
                        `Ok ()
                      end
                  end
              end)))

let transform_cmd =
  Cmd.v
    (Cmd.info "transform"
       ~doc:
         "Apply a .lft transformation script to a program: per-step \
          legality checks against the dependence graph, per-step \
          checkpoints, semantic verification, and optional simulation of \
          the scripted schedule")
    Term.(
      ret
        (const transform $ kernel_arg $ size_arg $ script_arg
       $ checkpoint_dir_arg $ emit_form_arg $ simulate_flag_arg $ machine_arg
       $ procs_arg $ run_opts_term))

(* --- serve / request ----------------------------------------------- *)

let serve_workers_arg =
  let doc =
    "Worker domains computing misses (default: max 2 host domains)."
  in
  Arg.(value & opt int 0 & info [ "workers"; "w" ] ~docv:"W" ~doc)

let max_inflight_arg =
  let doc = "Server-wide bound on queued + running jobs." in
  Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)

let max_client_queue_arg =
  let doc = "Per-connection bound on queued requests." in
  Arg.(value & opt int 8 & info [ "max-client-queue" ] ~docv:"N" ~doc)

let quantum_arg =
  let doc = "Deficit-round-robin credit granted per scheduling visit." in
  Arg.(value & opt int 4 & info [ "quantum" ] ~docv:"Q" ~doc)

let progress_interval_arg =
  let doc = "Seconds between streamed progress frames (0 disables)." in
  Arg.(
    value & opt float 0.5 & info [ "progress-interval" ] ~docv:"SECONDS" ~doc)

let verbose_arg =
  let doc = "Log connections and drains to stderr." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let serve socket workers max_inflight max_client_queue quantum
    progress_interval verbose store_dir jobs =
  match apply_jobs jobs with
  | Error m -> `Error (false, m)
  | Ok () ->
    let dc = Lf_serve.Serve.default_config () in
    let cfg =
      {
        Lf_serve.Serve.socket = Option.value socket ~default:dc.socket;
        workers = (if workers > 0 then workers else dc.workers);
        max_inflight;
        max_client_queue;
        quantum;
        store_dir;
        progress_interval_s = progress_interval;
        verbose;
      }
    in
    (match Lf_serve.Serve.run cfg with
    | () -> `Ok ()
    | exception Failure m -> `Error (false, m))

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the simulation service: answer Sim.requests over a \
          Unix-domain socket, warm hits from the result store, misses on \
          worker domains behind DRR admission control.  SIGINT/SIGTERM \
          drain gracefully.")
    Term.(
      ret
        (const serve $ socket_arg $ serve_workers_arg $ max_inflight_arg
       $ max_client_queue_arg $ quantum_arg $ progress_interval_arg
       $ verbose_arg $ store_dir_arg $ jobs_arg))

let unfused_variant_arg =
  let doc = "Request the unfused schedule (default: fused shift-and-peel)." in
  Arg.(value & flag & info [ "unfused" ] ~doc)

let wait_arg =
  let doc =
    "When the server answers Overloaded, back off and retry until the \
     request is admitted (default: fail immediately)."
  in
  Arg.(value & flag & info [ "wait" ] ~doc)

let request kernel n machine_name procs strip layout_spec engine steps
    unfused socket wait json =
  with_program kernel n (fun p ->
      match machine_of machine_name with
      | Error m -> `Error (false, m)
      | Ok machine -> (
        match layout_of layout_spec machine p with
        | Error m -> `Error (false, m)
        | Ok layout -> (
          let mode =
            match engine with
            | None -> Ok None (* Sim.make's default *)
            | Some e -> Result.map Option.some (Sim.mode_of_string e)
          in
          match mode with
          | Error m -> `Error (false, m)
          | Ok mode -> (
            let req =
              if unfused then
                Sim.unfused ~layout ?mode ~machine ~nprocs:procs ~steps p
              else
                Sim.fused ~layout ?mode ~machine ~nprocs:procs ~strip ~steps p
            in
            let module Client = Lf_serve.Client in
            let module Wire = Lf_serve.Wire in
            match Client.connect ?socket () with
            | exception Unix.Unix_error (e, _, _) ->
              `Error
                ( false,
                  Printf.sprintf "cannot reach server at %s: %s (is `lfc \
                                  serve` running?)"
                    (match socket with
                    | Some s -> s
                    | None -> Lf_serve.Serve.(default_config ()).socket)
                    (Unix.error_message e) )
            | c ->
              let on_progress (g : Wire.progress) =
                Fmt.epr
                  "progress: %d phases, %d refs, %d misses (%.1f s)@."
                  g.Wire.g_phases g.Wire.g_refs g.Wire.g_misses
                  g.Wire.g_elapsed_s
              in
              let rec go attempt =
                match Client.request_sync ~on_progress c ~rid:1 req with
                | Ok (Client.Served s) ->
                  let r = s.Client.result in
                  if json then
                    Fmt.pr
                      "{\"cycles\": %.17g, \"barrier_cycles\": %.17g, \
                       \"misses\": %d, \"from_store\": %b, \"wall_s\": \
                       %.6f, \"position\": %d}@."
                      r.Exec.cycles r.Exec.barrier_cycles r.Exec.total_misses
                      s.Client.from_store s.Client.wall_s s.Client.position
                  else begin
                    Fmt.pr "%s %s (n=%d) on %s, %d processors@."
                      (if unfused then "unfused" else "fused")
                      kernel n machine.Machine.mname procs;
                    Fmt.pr
                      "cycles %.4e (barrier %.4e), misses %d — %s (wall \
                       %.3f s, queue position %d)@."
                      r.Exec.cycles r.Exec.barrier_cycles r.Exec.total_misses
                      (if s.Client.from_store then "served from store"
                       else "computed")
                      s.Client.wall_s s.Client.position
                  end;
                  `Ok ()
                | Ok (Client.Overloaded reason) when wait ->
                  let backoff = Float.min 2.0 (0.1 *. (2.0 ** float attempt)) in
                  Fmt.epr "overloaded (%s), retrying in %.1f s@." reason
                    backoff;
                  Unix.sleepf backoff;
                  go (attempt + 1)
                | Ok (Client.Overloaded reason) ->
                  `Error (false, "server overloaded: " ^ reason)
                | Ok (Client.Rejected reason) ->
                  `Error (false, "request rejected: " ^ reason)
                | Error e -> `Error (false, "transport error: " ^ e)
              in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () -> go 0)))))

let request_cmd =
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Submit one simulation request to a running `lfc serve` and print \
          the (bit-identical) result; --wait retries through Overloaded \
          backpressure.")
    Term.(
      ret
        (const request $ kernel_arg $ size_arg $ machine_arg $ procs_arg
       $ strip_arg $ layout_arg $ engine_opt_arg $ steps_arg
       $ unfused_variant_arg $ socket_arg $ wait_arg $ json_arg))

(* --- cache --------------------------------------------------------- *)

let cache_stats json store_dir =
  let module Store = Lf_batch.Batch.Store in
  let store = store_of store_dir in
  let st = Store.stats store in
  let fs = Store.fingerprint_stats store in
  if json then begin
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"dir\": \"%s\", \"entries\": %d, \"bytes\": %d, \"salt\": \
          \"%s\", \"live_fingerprints\": {"
         (String.escaped (Store.dir store))
         st.Store.entries st.Store.bytes
         (String.escaped Sim.version_salt));
    List.iteri
      (fun i (m, v) ->
        Buffer.add_string b
          (Printf.sprintf "%s\"%s\": \"%s\""
             (if i = 0 then "" else ", ")
             (String.escaped m) (String.escaped v)))
      fs.Store.fp_live;
    Buffer.add_string b "}, \"fingerprint_counts\": [";
    List.iteri
      (fun i ((m, v), n) ->
        Buffer.add_string b
          (Printf.sprintf
             "%s{\"module\": \"%s\", \"version\": \"%s\", \"entries\": %d}"
             (if i = 0 then "" else ", ")
             (String.escaped m) (String.escaped v) n))
      fs.Store.fp_counts;
    Buffer.add_string b
      (Printf.sprintf
         "], \"stale_entries\": %d, \"fp_scanned\": %d, \"fp_unreadable\": \
          %d}"
         fs.Store.fp_stale fs.Store.fp_scanned fs.Store.fp_unreadable);
    Fmt.pr "%s@." (Buffer.contents b)
  end
  else begin
    Fmt.pr "%s: %d entries, %d bytes@." (Store.dir store) st.Store.entries
      st.Store.bytes;
    Fmt.pr "live fingerprints:";
    List.iter (fun (m, v) -> Fmt.pr " %s=%s" m v) fs.Store.fp_live;
    Fmt.pr "@.";
    List.iter
      (fun ((m, v), n) ->
        let stale =
          match List.assoc_opt m fs.Store.fp_live with
          | Some lv when lv = v -> ""
          | _ -> "  (stale)"
        in
        Fmt.pr "  %-10s %-16s %6d entr%s%s@." m v n
          (if n = 1 then "y" else "ies")
          stale)
      fs.Store.fp_counts;
    if fs.Store.fp_stale > 0 then
      Fmt.pr "%d of %d entr%s stale under the live fingerprints (gc \
              reclaims them)@."
        fs.Store.fp_stale fs.Store.fp_scanned
        (if fs.Store.fp_scanned = 1 then "y is" else "ies are")
  end;
  `Ok ()

let max_bytes_arg =
  let doc = "Shrink the store to at most $(docv) bytes (oldest first)." in
  Arg.(value & opt int 67_108_864 & info [ "max-bytes" ] ~docv:"BYTES" ~doc)

let cache_gc max_bytes store_dir =
  let store = store_of store_dir in
  let removed = Lf_batch.Batch.Store.gc ~max_bytes store in
  let st = Lf_batch.Batch.Store.stats store in
  Fmt.pr "removed %d entries; %d entries, %d bytes remain@." removed
    st.Lf_batch.Batch.Store.entries st.Lf_batch.Batch.Store.bytes;
  `Ok ()

let cache_clear store_dir =
  let store = store_of store_dir in
  let removed = Lf_batch.Batch.Store.clear store in
  Fmt.pr "removed %d entries from %s@." removed
    (Lf_batch.Batch.Store.dir store);
  `Ok ()

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Manage the persistent simulation-result store (_lf_cache/): \
          stats, gc, clear")
    [
      Cmd.v
        (Cmd.info "stats" ~doc:"Entry count and total size of the store")
        Term.(ret (const cache_stats $ json_arg $ store_dir_arg));
      Cmd.v
        (Cmd.info "gc" ~doc:"Evict oldest entries beyond a size budget")
        Term.(ret (const cache_gc $ max_bytes_arg $ store_dir_arg));
      Cmd.v
        (Cmd.info "clear" ~doc:"Delete every persisted result")
        Term.(ret (const cache_clear $ store_dir_arg));
    ]

(* --- sweep / worker ------------------------------------------------- *)

module Queue = Lf_queue.Queue
module Sweep = Lf_queue.Sweep

let sweep_kernels_arg =
  let doc =
    "Comma-separated kernels to sweep (default: all of ll18, calc, \
     jacobi, filter, tomcatv, hydro2d)."
  in
  Arg.(value & opt (some string) None & info [ "kernels" ] ~docv:"K1,K2" ~doc)

let sweep_size_arg =
  let doc = "Problem size per kernel." in
  Arg.(value & opt int 48 & info [ "size"; "n" ] ~docv:"N" ~doc)

let sweep_workers_arg =
  let doc =
    "Fork $(docv) local worker processes to drain the queue (0 = enqueue \
     only; external `lfc worker` processes drain)."
  in
  Arg.(value & opt int 0 & info [ "workers"; "w" ] ~docv:"W" ~doc)

let require_warm_arg =
  let doc =
    "Fail unless, after the drain, every sweep request is answered by \
     the store (the CI all-hits assertion)."
  in
  Arg.(value & flag & info [ "require-warm" ] ~doc)

let ttl_arg =
  let doc = "Lease time-to-live in seconds (crash-reclaim window)." in
  Arg.(value & opt float Queue.default_ttl & info [ "ttl" ] ~docv:"SECONDS" ~doc)

let watch_arg =
  let doc =
    "After the initial pass, watch the queue's fingerprint file and \
     re-enqueue exactly the digests a fingerprint change invalidates."
  in
  Arg.(value & flag & info [ "watch" ] ~doc)

let watch_rounds_arg =
  let doc = "Fingerprint changes to process before exiting --watch." in
  Arg.(value & opt int 1 & info [ "watch-rounds" ] ~docv:"R" ~doc)

let watch_timeout_arg =
  let doc = "Seconds to wait for each fingerprint change in --watch." in
  Arg.(value & opt float 600.0 & info [ "watch-timeout" ] ~docv:"SECONDS" ~doc)

(* Fork [nworkers] children that each run a draining Queue.worker.
   Callers must not have live domains (Exec.release_shared_pool first);
   the children may spawn their own. *)
let fork_workers ~nworkers ~ttl ~store_dir ~queue_dir =
  List.init nworkers (fun i ->
      let pid = Unix.fork () in
      if pid = 0 then begin
        (try
           let store = store_of store_dir in
           let q = queue_of queue_dir in
           let st =
             Queue.worker
               ~wid:(Printf.sprintf "w%d-%d" (Unix.getpid ()) i)
               ~ttl ~store q
           in
           if st.Queue.w_failed > 0 then Stdlib.exit 1
         with _ -> Stdlib.exit 1);
        Stdlib.exit 0
      end;
      pid)

let wait_workers pids =
  List.fold_left
    (fun acc pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> acc
      | _ -> acc + 1)
    0 pids

let sweep kernels_spec n procs workers queue_dir require_warm
    watch watch_rounds watch_timeout fingerprints ttl opts_result json =
  (* the sweep enqueues BOTH pure engines per configuration (that is
     the point of the mix), so opts.engine is deliberately ignored;
     store root, cold polarity and --jobs apply *)
  with_run_opts opts_result @@ fun opts ->
  let store_dir = Run_opts.store_root opts in
  let cold = Run_opts.is_cold opts in
  (match apply_fingerprints fingerprints with
  | Error m -> `Error (false, m)
  | Ok () -> (
  let kernels =
    Option.map (String.split_on_char ',') kernels_spec
  in
  match Sweep.mix ?kernels ~nprocs:procs ~n () with
  | exception Invalid_argument m -> `Error (false, m)
  | mix ->
    let store = store_of store_dir in
    let q = queue_of queue_dir in
    (* forking below: keep this process free of live domains *)
    Exec.release_shared_pool ();
    let misses_now () =
      let seen = Hashtbl.create 64 in
      List.fold_left
        (fun acc r ->
          let d = Sim.digest r in
          if Hashtbl.mem seen d then acc
          else begin
            Hashtbl.add seen d ();
            if Batch.Store.lookup store r = None then acc + 1 else acc
          end)
        0 mix
    in
    let drain label =
      if workers <= 0 then Ok 0
      else begin
        let pids =
          fork_workers ~nworkers:workers ~ttl ~store_dir ~queue_dir
        in
        let failures = wait_workers pids in
        if failures > 0 then
          Error (Printf.sprintf "%s: %d worker(s) exited non-zero" label
                   failures)
        else
          match Queue.wait ~timeout_s:1.0 q with
          | `Drained -> Ok failures
          | `Timeout ->
            Error (label ^ ": queue not drained after workers exited")
      end
    in
    let pass label ~save_fingerprints =
      let enq = Queue.enqueue_misses ~save_fingerprints ~cold q ~store mix in
      Fmt.pr
        "%s: %d requests (%d unique): %d store hits, %d enqueued, %d \
         already queued, %d failed earlier@."
        label enq.Queue.e_total enq.Queue.e_unique enq.Queue.e_hits
        enq.Queue.e_enqueued enq.Queue.e_queued_before
        enq.Queue.e_failed_before;
      match drain label with
      | Error m -> Error m
      | Ok _ ->
        let st = Queue.status q in
        Fmt.pr "%s: queue %a@." label Queue.pp_status st;
        List.iter
          (fun (d, msg) -> Fmt.pr "  failed %s: %s@." d msg)
          (Queue.failures q);
        if st.Queue.failed > 0 then
          Error
            (Printf.sprintf "%s: %d task(s) failed terminally" label
               st.Queue.failed)
        else Ok enq
    in
    match pass "sweep" ~save_fingerprints:true with
    | Error m -> `Error (false, m)
    | Ok enq0 -> (
      let watch_result =
        if not watch then Ok ()
        else begin
          let fpfile = Queue.fingerprint_file q in
          let mtime () =
            match Unix.stat fpfile with
            | st -> st.Unix.st_mtime
            | exception _ -> 0.0
          in
          let rec rounds r last =
            if r > watch_rounds then Ok ()
            else begin
              Fmt.pr "watch: waiting for a fingerprint change (round %d/%d)@."
                r watch_rounds;
              let t0 = Unix.gettimeofday () in
              let rec poll () =
                let m = mtime () in
                if m > last then Ok m
                else if Unix.gettimeofday () -. t0 > watch_timeout then
                  Error "watch: timed out waiting for a fingerprint change"
                else begin
                  Unix.sleepf 0.05;
                  poll ()
                end
              in
              match poll () with
              | Error m -> Error m
              | Ok stamp -> (
                (match Sim.Fingerprint.load_file fpfile with
                | Ok () -> ()
                | Error m -> Fmt.pr "watch: bad fingerprint file: %s@." m);
                match
                  pass
                    (Printf.sprintf "watch round %d" r)
                    ~save_fingerprints:false
                with
                | Error m -> Error m
                | Ok enq ->
                  Fmt.pr
                    "watch round %d: fingerprint change invalidated %d \
                     digest(s)@."
                    r enq.Queue.e_enqueued;
                  rounds (r + 1) stamp)
            end
          in
          rounds 1 (mtime ())
        end
      in
      match watch_result with
      | Error m -> `Error (false, m)
      | Ok () ->
        let missing = misses_now () in
        if json then
          Fmt.pr
            "{\"mix\": %d, \"unique\": %d, \"hits\": %d, \"enqueued\": %d, \
             \"workers\": %d, \"missing_after\": %d}@."
            enq0.Queue.e_total enq0.Queue.e_unique enq0.Queue.e_hits
            enq0.Queue.e_enqueued workers missing;
        if require_warm && missing > 0 then
          `Error
            ( false,
              Printf.sprintf
                "--require-warm: %d sweep request(s) still missing from the \
                 store"
                missing )
        else `Ok ())))

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Enqueue a sweep's store misses as work-queue tasks and \
          optionally fork local workers to drain them; any number of `lfc \
          worker` processes sharing the queue directory participate.  \
          --watch re-enqueues exactly the digests a fingerprint change \
          invalidates.")
    Term.(
      ret
        (const sweep $ sweep_kernels_arg $ sweep_size_arg $ procs_arg
       $ sweep_workers_arg $ queue_dir_arg
       $ require_warm_arg $ watch_arg $ watch_rounds_arg $ watch_timeout_arg
       $ fingerprint_arg $ ttl_arg $ run_opts_term $ json_arg))

let worker_wid_arg =
  let doc = "Worker id used in lease filenames (default: pid-derived)." in
  Arg.(value & opt (some string) None & info [ "wid" ] ~docv:"ID" ~doc)

let idle_timeout_arg =
  let doc =
    "Keep polling for new tasks until $(docv) seconds pass with none \
     (default: exit once the queue is drained)."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)

let worker_run wid queue_dir store_dir ttl idle_timeout jobs json =
  match apply_jobs jobs with
  | Error m -> `Error (false, m)
  | Ok () ->
    let store = store_of store_dir in
    let q = queue_of queue_dir in
    let st = Queue.worker ?wid ~ttl ?idle_timeout_s:idle_timeout ~store q in
    if json then
      Fmt.pr
        "{\"claimed\": %d, \"computed\": %d, \"hits\": %d, \"failed\": %d, \
         \"reclaimed\": %d}@."
        st.Queue.w_claimed st.Queue.w_computed st.Queue.w_hits
        st.Queue.w_failed st.Queue.w_reclaimed
    else Fmt.pr "%a@." Queue.pp_worker_stats st;
    `Ok ()

let worker_cmd =
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Drain a sweep work queue: claim tasks by atomic rename, compute \
          them through the batch layer, publish results to the shared \
          store.  Crash-safe — a worker that dies mid-task stops \
          heartbeating and its lease is reclaimed by any peer after the \
          ttl.")
    Term.(
      ret
        (const worker_run $ worker_wid_arg $ queue_dir_arg $ store_dir_arg
       $ ttl_arg $ idle_timeout_arg $ jobs_arg $ json_arg))

let main_cmd =
  Cmd.group
    (Cmd.info "lfc" ~version:"1.0"
       ~doc:"Shift-and-peel loop fusion (Manjikian & Abdelrahman, ICPP 1995)")
    [ analyze_cmd; derive_cmd; emit_cmd; simulate_cmd; run_cmd; trace_cmd;
      verify_cmd; transform_cmd; pipeline_cmd; profile_cmd; tune_cmd;
      cache_cmd; serve_cmd; request_cmd; sweep_cmd; worker_cmd ]

let () = exit (Cmd.eval main_cmd)
