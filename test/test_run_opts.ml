(* The unified request-options record (Lf_batch.Run_opts) and its
   consumers.

   Contracts under test:
   - store policies resolve to memoised handles (one handle per root,
     physical equality);
   - of_env parses the documented variables and rejects malformed
     values with an error naming the variable, never a silent
     fallback. *)

module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch
module Store = Lf_batch.Batch.Store
module Run_opts = Lf_batch.Run_opts

let scratch_dir () =
  let path = Filename.temp_file "lf_run_opts_test" "" in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)

let test_defaults_and_combinators () =
  let open Run_opts in
  Alcotest.(check bool) "default engine is Run_compressed" true
    (default.engine = Sim.Run_compressed);
  Alcotest.(check bool) "default store is warm default root" true
    (default.store = Store_in None);
  Alcotest.(check bool) "default jobs deferred" true (default.jobs = None);
  Alcotest.(check int) "with_jobs clamps at 1" 1
    (jobs_or_default (with_jobs 0 default));
  Alcotest.(check int) "with_jobs carries through" 5
    (jobs_or_default (with_jobs 5 default));
  Alcotest.(check bool) "cold flips Store_in" true
    (is_cold (cold default));
  Alcotest.(check bool) "cold keeps the root" true
    ((cold (with_store (Store_in (Some "/tmp/r")) default)).store
    = Store_cold (Some "/tmp/r"));
  Alcotest.(check bool) "cold of Store_off stays off" true
    ((cold (without_store default)).store = Store_off);
  Alcotest.(check bool) "without_store disables" false
    (store_enabled (without_store default));
  Alcotest.(check bool) "store_root of default is None" true
    (store_root default = None);
  Alcotest.(check bool) "store_root names the root" true
    (store_root (with_store (Store_cold (Some "/tmp/r")) default)
    = Some "/tmp/r");
  let s = Fmt.str "%a" pp (with_timeout 2.5 (with_jobs 3 default)) in
  Alcotest.(check bool) "pp mentions the fields" true
    (Tutil.contains s "engine=runs"
    && Tutil.contains s "jobs=3"
    && Tutil.contains s "timeout=2.5s")

let test_store_of_opts_memoised () =
  Alcotest.(check bool) "Store_off resolves to None" true
    (Batch.store_of_opts Run_opts.(without_store default) = None);
  let dir = scratch_dir () in
  let h1 = Batch.store_of_opts (Run_opts.make ~store:(Run_opts.Store_in (Some dir)) ()) in
  let h2 = Batch.store_of_opts (Run_opts.make ~store:(Run_opts.Store_in (Some dir)) ()) in
  let h3 = Batch.store_of_opts (Run_opts.make ~store:(Run_opts.Store_cold (Some dir)) ()) in
  (match (h1, h2, h3) with
  | Some s1, Some s2, Some s3 ->
    Alcotest.(check bool) "same root, same handle" true (s1 == s2);
    Alcotest.(check bool) "cold policy shares the handle too" true (s1 == s3)
  | _ -> Alcotest.fail "policy with a root resolved no store");
  let other = scratch_dir () in
  match
    Batch.store_of_opts (Run_opts.make ~store:(Run_opts.Store_in (Some other)) ())
  with
  | Some s4 ->
    Alcotest.(check bool) "different root, different handle" true
      (Some s4 != h1 && Store.dir s4 <> Store.dir (Option.get h1))
  | None -> Alcotest.fail "second root resolved no store"

(* ------------------------------------------------------------------ *)
(* of_env *)

(* restores the previous values (empty = unset), so a CI-provided
   LF_JOBS survives for the suites that run after this one *)
let with_env pairs f =
  let saved =
    List.map (fun (k, _) -> (k, Option.value (Sys.getenv_opt k) ~default:""))
      pairs
  in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (k, v) -> Unix.putenv k v) saved)
    f

let test_of_env () =
  (* a clean environment returns the base unchanged *)
  with_env
    [
      ("LF_ENGINE", "");
      ("LF_TIMEOUT_S", "");
      ("LF_STORE", "");
      ("LF_COLD", "");
      ("LF_JOBS", "");
    ]
    (fun () ->
      match Run_opts.of_env () with
      | Ok t -> Alcotest.(check bool) "clean env = default" true (t = Run_opts.default)
      | Error e -> Alcotest.fail e);
  with_env
    [ ("LF_ENGINE", "miss-only"); ("LF_TIMEOUT_S", "2.5"); ("LF_COLD", "1") ]
    (fun () ->
      match Run_opts.of_env () with
      | Ok t ->
        Alcotest.(check bool) "LF_ENGINE parsed" true (t.Run_opts.engine = Sim.Miss_only);
        Alcotest.(check bool) "LF_TIMEOUT_S parsed" true
          (t.Run_opts.timeout_s = Some 2.5);
        Alcotest.(check bool) "LF_COLD makes the policy cold" true
          (Run_opts.is_cold t)
      | Error e -> Alcotest.fail e);
  with_env [ ("LF_STORE", "off"); ("LF_COLD", "1") ] (fun () ->
      match Run_opts.of_env () with
      | Ok t ->
        Alcotest.(check bool) "LF_STORE=off wins over LF_COLD" true
          (t.Run_opts.store = Run_opts.Store_off)
      | Error e -> Alcotest.fail e);
  (* LF_JOBS is never read into [jobs]: Exec.default_jobs stays the one
     source of its value, and the CLI's Common.apply_jobs its one check
     (a malformed value is pinned to exit 124 in test/dune) *)
  with_env [ ("LF_ENGINE", "full"); ("LF_JOBS", "3") ] (fun () ->
      match Run_opts.of_env ~base:(Run_opts.make ~jobs:7 ()) () with
      | Ok t ->
        Alcotest.(check bool) "base fields survive" true
          (t.Run_opts.jobs = Some 7 && t.Run_opts.engine = Sim.Full)
      | Error e -> Alcotest.fail e);
  List.iter
    (fun v ->
      with_env [ ("LF_JOBS", v) ] (fun () ->
          match Run_opts.of_env () with
          | Ok t ->
            Alcotest.(check bool) ("LF_JOBS=" ^ v ^ " leaves jobs unset") true
              (t.Run_opts.jobs = None)
          | Error e -> Alcotest.fail e))
    [ "auto"; "0"; " 2 " ];
  (* malformed values are errors naming the variable *)
  let expect_error var pairs =
    with_env pairs (fun () ->
        match Run_opts.of_env () with
        | Ok _ -> Alcotest.failf "malformed %s accepted" var
        | Error e ->
          Alcotest.(check bool) (var ^ " named in error") true
            (Tutil.contains e var))
  in
  expect_error "LF_ENGINE" [ ("LF_ENGINE", "warp-speed") ];
  expect_error "LF_TIMEOUT_S" [ ("LF_TIMEOUT_S", "-3") ];
  expect_error "LF_TIMEOUT_S" [ ("LF_TIMEOUT_S", "soon") ];
  expect_error "LF_STORE" [ ("LF_STORE", "maybe") ];
  expect_error "LF_COLD" [ ("LF_COLD", "2") ];
  (* the parser behind the CLI's LF_JOBS check *)
  List.iter
    (fun v ->
      Alcotest.(check bool) ("LF_JOBS=" ^ v ^ " rejected") true
        (Result.is_error (Lf_machine.Exec.jobs_of_string v)))
    [ "abc"; "-2" ]

let suite =
  [
    Alcotest.test_case "defaults, combinators, pp" `Quick
      test_defaults_and_combinators;
    Alcotest.test_case "store_of_opts memoises per root" `Quick
      test_store_of_opts_memoised;
    Alcotest.test_case "of_env parsing and errors" `Quick test_of_env;
  ]
