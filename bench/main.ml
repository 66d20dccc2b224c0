(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md for the experiment index).

   Usage:
     dune exec bench/main.exe                  -- all experiments, paper sizes
     dune exec bench/main.exe -- --quick       -- reduced sizes/processors
     dune exec bench/main.exe -- --only t2,f20 -- a subset
     dune exec bench/main.exe -- --list        -- list experiment ids
     dune exec bench/main.exe -- --max-procs 8 -- cap processor counts *)

let experiments : (string * string * (Util.cfg -> unit)) list =
  [
    ("t1", "Table 1: kernel/application inventory", Exp_tables.table1);
    ("t2", "Table 2: derived shift and peel amounts", Exp_tables.table2);
    ("f9", "Figures 9/10: derivation walkthrough", fun c -> ignore c;
       Exp_worked.figures_9_10 ());
    ("f11", "Figures 11/12: generated 1-D code", fun c -> ignore c;
       Exp_worked.figures_11_12 ());
    ("f15", "Figures 15/16: multidimensional code", fun c -> ignore c;
       Exp_worked.figures_15_16 ());
    ("f18", "Figure 18: misses vs padding (fused LL18)", Exp_padding.fig18);
    ("f20", "Figure 20: cache partitioning for LL18", Exp_padding.fig20);
    ("f21", "Figure 21: cache partitioning for applications", Exp_apps.fig21);
    ("f22", "Figure 22: kernels on KSR2", Exp_kernels.fig22);
    ("f23", "Figure 23: kernels on Convex", Exp_kernels.fig23);
    ("f24", "Figure 24: improvement vs array size", Exp_kernels.fig24);
    ("f25", "Figure 25: applications on Convex", Exp_apps.fig25);
    ("f26", "Figure 26: peeling vs alignment/replication", Exp_alignrep.fig26);
    ("prof", "Profitability estimate (sec. 5/6)", Exp_profit.run);
    ("obs", "Conflict-miss attribution via event counters (lf_obs)",
     Exp_obs.run);
    ("abl", "Ablation studies (design choices)", Exp_ablation.run);
    ("tune", "Autotuned vs paper-default configurations (lf_tune)",
     Exp_tune.run);
    ("eng", "Engine: host-domain parallelism + fast-path modes",
     Exp_engine.run);
    ("smoke", "Engine smoke: scalar vs run-compressed identity (CI tier)",
     Exp_smoke.run);
    ("serve", "Socket service under concurrent zipf load (lf_serve)",
     Exp_serve.run);
    ("native", "BENCH_7: native multicore execution, predicted vs measured \
                speedups (lf_native)",
     Exp_native.run);
    ("queue", "BENCH_8: multi-process sweep fan-out through the work queue \
               + fingerprint invalidation (lf_queue)",
     Exp_queue.run);
    ("lazy", "BENCH_9: lazy-array frontend, fused DAG blocks vs \
              op-at-a-time traces (lf_lazy)",
     Exp_lazy.run);
    ("bech", "Bechamel micro-benchmarks", Bechamel_suite.run);
  ]

let usage () =
  print_endline
    "usage: main.exe [--quick] [--smoke] [--only ids] [--list] \
     [--max-procs N] [--no-timings] [--jobs N] [--json FILE] \
     [--cold] [--no-store] [--require-warm]";
  print_endline "experiment ids:";
  List.iter
    (fun (id, desc, _) -> Printf.printf "  %-5s %s\n" id desc)
    experiments

let () =
  let quick = ref false in
  let only = ref None in
  let procs_cap = ref None in
  let json_file = ref None in
  let require_warm = ref false in
  (* deterministic output for golden tests: omit wall-clock timings *)
  let timings = ref true in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--smoke" :: rest ->
      (* budgeted CI tier: just the engine identity smoke *)
      only := Some [ "smoke" ];
      parse rest
    | "--no-timings" :: rest ->
      timings := false;
      parse rest
    | "--only" :: ids :: rest ->
      only := Some (String.split_on_char ',' ids);
      parse rest
    | "--max-procs" :: n :: rest ->
      procs_cap := Some (int_of_string n);
      parse rest
    | "--jobs" :: n :: rest ->
      Lf_machine.Exec.set_default_jobs (int_of_string n);
      parse rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--cold" :: rest ->
      (* recompute everything; fresh results still warm the store *)
      Util.opts := Lf_batch.Run_opts.cold !Util.opts;
      parse rest
    | "--no-store" :: rest ->
      Util.opts := Lf_batch.Run_opts.without_store !Util.opts;
      parse rest
    | "--require-warm" :: rest ->
      require_warm := true;
      parse rest
    | "--list" :: _ | "--help" :: _ ->
      usage ();
      exit 0
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      usage ();
      exit 1
  in
  parse (List.tl args);
  let cfg = { Util.quick = !quick; procs_cap = !procs_cap; timings = !timings } in
  let selected =
    match !only with
    | None -> experiments
    | Some ids ->
      List.iter
        (fun id ->
          if not (List.exists (fun (i, _, _) -> i = id) experiments) then begin
            Printf.eprintf "unknown experiment id %s\n" id;
            exit 1
          end)
        ids;
      List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  let total = Util.elapsed_timer () in
  Fmt.pr
    "Reproduction harness for \"Fusion of Loops for Parallelism and \
     Locality\" (Manjikian & Abdelrahman, ICPP 1995)@.";
  Fmt.pr "mode: %s@." (if !quick then "quick" else "full (paper sizes)");
  List.iter
    (fun (id, _, f) ->
      let t = Util.elapsed_timer () in
      let h0 = Lf_batch.Batch.hit_count ()
      and c0 = Lf_batch.Batch.computed_count () in
      f cfg;
      let dt = t () in
      Util.note ~id
        [
          ("wall_s", Util.Float dt);
          ("store_hits", Util.Int (Lf_batch.Batch.hit_count () - h0));
          ("store_computed",
           Util.Int (Lf_batch.Batch.computed_count () - c0));
        ];
      if !timings then Fmt.pr "@.[%s done in %.1fs]@." id dt
      else Fmt.pr "@.[%s done]@." id)
    selected;
  if !timings then
    Fmt.pr "@.All selected experiments completed in %.1fs.@." (total ())
  else Fmt.pr "@.All selected experiments completed.@.";
  let hits = Lf_batch.Batch.hit_count ()
  and computed = Lf_batch.Batch.computed_count () in
  if hits + computed > 0 then
    Fmt.pr "result store: %d hits, %d simulations run.@." hits computed;
  (match !json_file with
  | None -> ()
  | Some file ->
    Util.write_json ~file ~jobs:(Lf_machine.Exec.default_jobs ());
    Fmt.pr "machine-readable results written to %s@." file);
  if !require_warm && computed > 0 then begin
    Fmt.epr
      "--require-warm: %d request(s) missed the result store and were \
       simulated@."
      computed;
    exit 1
  end
