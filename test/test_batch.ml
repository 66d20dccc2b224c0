(* The request/store/batch layer (lf_batch + Sim.request).

   Three contracts under test:
   - the Sim.fused/Sim.unfused builders name exactly the schedules
     Schedule.fused/unfused build: their requests simulate
     bit-identically to Explicit requests of those schedules — a QCheck
     property over the paper's six kernels;
   - Store round trips are bit-exact, corruption-tolerant (any damaged
     entry is a miss, never an error) and safe under concurrent
     writers;
   - request digests are stable across sessions (golden values pinned
     here; an engine change must bump Sim.version_salt, which moves
     every digest and invalidates persisted results). *)

module Ir = Lf_ir.Ir
module Schedule = Lf_core.Schedule
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch
module Store = Lf_batch.Batch.Store
module Run_opts = Lf_batch.Run_opts
module Cache = Lf_cache.Cache

open QCheck

(* ------------------------------------------------------------------ *)
(* Shared kernel pool (same six programs as test_engine).              *)

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

type layout_pick = L_contiguous | L_padded of int | L_partitioned

let layout_of_pick ~machine pick (p : Ir.program) =
  match pick with
  | L_contiguous -> Partition.contiguous p.Ir.decls
  | L_padded pad -> Partition.padded ~pad p.Ir.decls
  | L_partitioned ->
    Partition.cache_partitioned
      ~cache:
        {
          Partition.capacity = machine.Machine.cache.Cache.capacity;
          line = machine.Machine.cache.Cache.line;
          assoc = machine.Machine.cache.Cache.assoc;
        }
      p.Ir.decls

type case = {
  kernel : int;
  n : int;
  nprocs : int;
  strip : int;
  fuse : bool;
  pick : layout_pick;
  steps : int;
  mode_ix : int;
}

let modes = [| Sim.Miss_only; Sim.Run_compressed |]

let gen_case =
  let open Gen in
  let* kernel = int_range 0 (Array.length kernels - 1) in
  let* n = int_range 24 40 in
  let* nprocs = int_range 1 5 in
  let* strip = int_range 2 10 in
  let* fuse = bool in
  let* pick =
    oneof
      [
        return L_contiguous;
        map (fun p -> L_padded p) (int_range 1 4);
        return L_partitioned;
      ]
  in
  let* steps = int_range 1 2 in
  let* mode_ix = int_range 0 (Array.length modes - 1) in
  return { kernel; n; nprocs; strip; fuse; pick; steps; mode_ix }

let arb_case =
  make
    ~print:(fun c ->
      Printf.sprintf "%s n=%d nprocs=%d strip=%d fused=%b %s steps=%d mode=%s"
        (fst kernels.(c.kernel))
        c.n c.nprocs c.strip c.fuse
        (match c.pick with
        | L_contiguous -> "contiguous"
        | L_padded p -> Printf.sprintf "pad:%d" p
        | L_partitioned -> "partitioned")
        c.steps
        (Sim.mode_to_string modes.(c.mode_ix)))
    gen_case

let results_identical = Tutil.results_identical

(* ------------------------------------------------------------------ *)
(* Request builders vs explicit schedules                              *)

(* Sim.fused/Sim.unfused request the schedule that Schedule.fused/
   unfused builds: the builder's request (rebuilt from the program at
   replay time) simulates exactly like the Explicit request carrying
   that schedule structurally — every counter and the sink totals. *)
let prop_builders_equal_explicit ~machine name =
  Test.make ~count:40
    ~name:("Sim builders = of_schedule (" ^ name ^ ")")
    arb_case
    (fun c ->
      let _, mk = kernels.(c.kernel) in
      let p = mk c.n in
      let mode = modes.(c.mode_ix) in
      let layout = layout_of_pick ~machine c.pick p in
      let nprocs = c.nprocs and steps = c.steps in
      let built, sched =
        if c.fuse then
          ( Sim.fused ~strip:c.strip ~layout ~steps ~mode ~machine ~nprocs p,
            fun () -> Schedule.fused ~nprocs ~strip:c.strip p )
        else
          ( Sim.unfused ~layout ~steps ~mode ~machine ~nprocs p,
            fun () -> Schedule.unfused ~nprocs p )
      in
      match sched () with
      | exception Schedule.Illegal _ -> true
      | exception Invalid_argument _ -> true (* more procs than iters *)
      | sched ->
        let explicit = Sim.of_schedule ~layout ~steps ~mode ~machine sched in
        let run req =
          let sink = Lf_obs.Obs.create () in
          let r = Exec.run_opts (Exec.opts ~sink ()) req in
          (r, Lf_obs.Obs.totals sink)
        in
        let b, b_totals = run built and e, e_totals = run explicit in
        if not (results_identical b e) then
          Test.fail_report "builder request differs from Explicit request";
        if b_totals <> e_totals then
          Test.fail_report "sink totals differ";
        true)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

(* Batch options persisting into [store]'s root. *)
let in_store store =
  Run_opts.make ~store:(Run_opts.Store_in (Some (Store.dir store))) ()

let sample_request ?(mode = Sim.Run_compressed) ?(n = 48) ?(nprocs = 3) () =
  let p = Lf_kernels.Ll18.program ~n () in
  let layout = Partition.contiguous p.Ir.decls in
  Sim.fused ~strip:6 ~layout ~mode ~machine:Machine.convex ~nprocs p

let entry_path store req =
  Filename.concat (Store.dir store) (Sim.digest req ^ ".lfres")

(* Round trip: what lookup returns is bit-identical to what add was
   given — floats included (serialised via their IEEE-754 bits). *)
let test_store_roundtrip () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let req = sample_request () in
  Alcotest.(check bool) "miss before add" true (Store.lookup store req = None);
  let res = Exec.run_opts Exec.default_opts req in
  Alcotest.(check bool) "add accepts" true (Store.add store req res);
  match Store.lookup store req with
  | None -> Alcotest.fail "lookup missed after add"
  | Some got ->
    Alcotest.(check bool) "bit-identical round trip" true
      (results_identical res got)

(* QCheck round trip across kernels/modes: every request's result
   survives the store byte-for-byte. *)
let prop_store_roundtrip =
  Test.make ~count:25 ~name:"store round trip is bit-exact (all kernels)"
    arb_case
    (fun c ->
      let _, mk = kernels.(c.kernel) in
      let p = mk c.n in
      let mode = modes.(c.mode_ix) in
      let machine = Machine.convex in
      let layout = layout_of_pick ~machine c.pick p in
      let req () =
        if c.fuse then
          Sim.fused ~strip:c.strip ~layout ~steps:c.steps ~mode ~machine
            ~nprocs:c.nprocs p
        else
          Sim.unfused ~layout ~steps:c.steps ~mode ~machine ~nprocs:c.nprocs p
      in
      match Exec.run_opts Exec.default_opts (req ()) with
      | exception Schedule.Illegal _ -> true
      | exception Invalid_argument _ -> true
      | res -> (
        Tutil.with_temp_dir @@ fun dir ->
        let store = Store.open_ ~dir () in
        let req = req () in
        if not (Store.add store req res) then
          Test.fail_report "add refused a request";
        match Store.lookup store req with
        | None -> Test.fail_report "round trip missed"
        | Some got ->
          if not (results_identical res got) then
            Test.fail_report "round trip not bit-identical";
          true))

(* Corrupt entries are misses, never crashes: truncation, garbage,
   bit flips, a stale version salt, an empty file. *)
let test_store_corruption () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let req = sample_request () in
  let res = Exec.run_opts Exec.default_opts req in
  let path = entry_path store req in
  let read_all () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let expect_miss what =
    match Store.lookup store req with
    | None -> ()
    | Some _ -> Alcotest.failf "corrupt entry (%s) served as a hit" what
  in
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
    in
    go 0
  in
  let replace_once s ~sub ~by =
    let i = find_sub s sub in
    Alcotest.(check bool) ("entry contains " ^ sub) true (i >= 0);
    String.sub s 0 i ^ by
    ^ String.sub s (i + String.length sub)
        (String.length s - i - String.length sub)
  in
  ignore (Store.add store req res);
  let good = read_all () in
  write (String.sub good 0 (String.length good / 2));
  expect_miss "truncated";
  write "";
  expect_miss "empty";
  write "total garbage\nnot a result\n";
  expect_miss "garbage";
  (* perturb the first digit of the cycles field *)
  let idx = find_sub good "cycles " in
  Alcotest.(check bool) "found cycles field" true (idx >= 0);
  let flipped = Bytes.of_string good in
  Bytes.set flipped (idx + 7) 'x';
  write (Bytes.to_string flipped);
  expect_miss "field corrupted";
  (* stale salt: rewrite the header line *)
  write
    (replace_once good
       ~sub:("lfres1 " ^ Sim.version_salt)
       ~by:"lfres1 someone-elses-salt");
  expect_miss "stale salt";
  (* and a pristine rewrite is a hit again *)
  write good;
  (match Store.lookup store req with
  | Some got ->
    Alcotest.(check bool) "restored entry hits" true
      (results_identical res got)
  | None -> Alcotest.fail "restored entry missed")

(* Concurrent writers of the same digest: atomic rename means no crash
   and a readable entry afterwards. *)
let test_store_concurrent_writers () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let req = sample_request ~n:32 () in
  let res = Exec.run_opts Exec.default_opts req in
  let writers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              ignore (Store.add store req res)
            done;
            true))
  in
  let ok = Array.for_all Domain.join writers in
  Alcotest.(check bool) "all writers finished" true ok;
  (match Store.lookup store req with
  | Some got ->
    Alcotest.(check bool) "entry readable after racing writers" true
      (results_identical res got)
  | None -> Alcotest.fail "entry missing after racing writers");
  let st = Store.stats store in
  Alcotest.(check int) "exactly one entry" 1 st.Store.entries

let test_store_stats_gc_clear () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let reqs =
    List.map (fun n -> sample_request ~n ()) [ 24; 28; 32; 36; 40 ]
  in
  List.iter
    (fun req ->
      ignore (Store.add store req (Exec.run_opts Exec.default_opts req)))
    reqs;
  let st = Store.stats store in
  Alcotest.(check int) "five entries" 5 st.Store.entries;
  Alcotest.(check bool) "bytes counted" true (st.Store.bytes > 0);
  (* keep roughly two entries' worth *)
  let keep = 2 * (st.Store.bytes / 5) in
  let removed = Store.gc ~max_bytes:keep store in
  Alcotest.(check bool) "gc removed some" true (removed >= 3);
  let st = Store.stats store in
  Alcotest.(check bool) "gc respects budget" true (st.Store.bytes <= keep);
  let removed = Store.clear store in
  Alcotest.(check int) "clear removes the rest" removed st.Store.entries;
  Alcotest.(check int) "store empty" 0 (Store.stats store).Store.entries

(* ------------------------------------------------------------------ *)
(* Batch.run_with                                                      *)

let test_batch_dedup_and_hits () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let r1 = sample_request ~n:24 () in
  let r2 = sample_request ~n:28 () in
  (* r1 appears three times: once computed, twice deduplicated *)
  let outcomes, summary = Batch.run_with (in_store store) [ r1; r2; r1; r1 ] in
  Alcotest.(check int) "total" 4 summary.Batch.total;
  Alcotest.(check int) "unique" 2 summary.Batch.unique;
  Alcotest.(check int) "computed" 2 summary.Batch.computed;
  Alcotest.(check int) "no hits yet" 0 summary.Batch.hits;
  let results = Batch.results_exn outcomes in
  Alcotest.(check bool) "repeats share the representative result" true
    (results_identical results.(0) results.(2)
    && results_identical results.(0) results.(3));
  (* second batch: everything answered from the store *)
  let outcomes2, summary2 = Batch.run_with (in_store store) [ r1; r2 ] in
  Alcotest.(check int) "warm hits" 2 summary2.Batch.hits;
  Alcotest.(check int) "warm computed" 0 summary2.Batch.computed;
  Array.iteri
    (fun i (o : Batch.outcome) ->
      Alcotest.(check bool) "marked from_store" true o.Batch.from_store;
      (* wall-clock lives outside the persisted entry *)
      Alcotest.(check (float 0.0)) "warm wall_s is 0" 0.0 o.Batch.wall_s;
      Alcotest.(check bool) "warm result bit-identical" true
        (results_identical (Result.get_ok o.Batch.result) results.(i)))
    outcomes2;
  (* --cold forces recomputation but still counts as computed *)
  let _, summary3 = Batch.run_with (Run_opts.cold (in_store store)) [ r1 ] in
  Alcotest.(check int) "cold recomputes" 1 summary3.Batch.computed

let test_batch_parallel_identical () =
  let reqs =
    List.concat_map
      (fun n -> [ sample_request ~n (); sample_request ~n ~nprocs:2 () ])
      [ 24; 28; 32; 36 ]
  in
  let batch jobs = Batch.run_with Run_opts.(make ~jobs ~store:Store_off ()) in
  let serial, _ = batch 1 reqs in
  let parallel, _ = batch 4 reqs in
  Array.iteri
    (fun i (s : Batch.outcome) ->
      Alcotest.(check bool) "sharded batch bit-identical to serial" true
        (results_identical
           (Result.get_ok s.Batch.result)
           (Result.get_ok parallel.(i).Batch.result)))
    serial

let test_batch_failure_propagation () =
  (* 9 processors on an 8-iteration space: Schedule.unfused raises,
     the batch reports Crashed, results_exn rethrows first in request
     order, and healthy jobs still complete *)
  let p = Tutil.chain_program ~lo:1 ~hi:8 [ [ 0 ]; [ 0 ] ] in
  let layout = Partition.contiguous p.Ir.decls in
  let bad =
    Sim.unfused ~layout ~mode:Sim.Run_compressed ~machine:Machine.convex
      ~nprocs:9 p
  in
  let good = sample_request ~n:24 () in
  let outcomes, summary =
    Batch.run_with Run_opts.(without_store default) [ good; bad; good ]
  in
  Alcotest.(check int) "one unique failure" 1 summary.Batch.failed;
  (match outcomes.(1).Batch.result with
  | Error (Batch.Crashed _) -> ()
  | Error (Batch.Timed_out _) -> Alcotest.fail "crash reported as timeout"
  | Ok _ -> Alcotest.fail "illegal request reported success");
  (match outcomes.(0).Batch.result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "healthy request infected by the failure");
  (match Batch.results_exn outcomes with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "results_exn did not raise")

let test_batch_timeout () =
  let req = sample_request ~n:48 () in
  let outcomes, summary =
    Batch.run_with Run_opts.(make ~timeout_s:0.0 ~store:Store_off ()) [ req ]
  in
  Alcotest.(check int) "timed out" 1 summary.Batch.failed;
  match outcomes.(0).Batch.result with
  | Error (Batch.Timed_out dt) ->
    Alcotest.(check bool) "reports elapsed wall" true (dt >= 0.0)
  | _ -> Alcotest.fail "zero budget did not time out"

let test_run_one_sink_always_computes () =
  Tutil.with_temp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let req = sample_request ~n:24 () in
  let sink = Lf_obs.Obs.create () in
  let c0 = Batch.computed_count () in
  let r1 = Batch.run_one_with (Run_opts.with_sink sink (in_store store)) req in
  Alcotest.(check bool) "sink populated" true
    ((Lf_obs.Obs.totals sink).Lf_obs.Obs.t_refs > 0);
  (* the sinked run warmed the store: a sink-less repeat is a hit *)
  let h0 = Batch.hit_count () in
  let r2 = Batch.run_one_with (in_store store) req in
  Alcotest.(check bool) "sink-less repeat hits the store" true
    (Batch.hit_count () = h0 + 1);
  Alcotest.(check bool) "hit bit-identical" true (results_identical r1 r2);
  (* a second sinked run computes again (replay cannot fill a sink) *)
  let sink2 = Lf_obs.Obs.create () in
  ignore (Batch.run_one_with (Run_opts.with_sink sink2 (in_store store)) req);
  Alcotest.(check bool) "sinked runs always compute" true
    (Batch.computed_count () >= c0 + 2)

(* ------------------------------------------------------------------ *)
(* Digest stability                                                    *)

(* Golden digests: these move only when the canonical form, the
   serialisation salt or a dependent module fingerprint changes — all
   of which invalidate the affected persisted results, which is
   exactly what this test makes deliberate. *)
let test_digest_golden () =
  let ll18 =
    sample_request ~n:48 ~nprocs:3 ()
  in
  let jacobi =
    Sim.unfused ~mode:Sim.Miss_only ~machine:Machine.ksr2 ~nprocs:2
      (Lf_kernels.Jacobi.program ~n:32 ())
  in
  let explicit =
    Sim.of_schedule ~machine:Machine.convex
      (Schedule.unfused ~nprocs:2 (Lf_kernels.Calc.program ~n:32 ()))
  in
  Alcotest.(check string) "ll18 fused digest" "89af1d649796201da17e4e5f8c826bac"
    (Sim.digest ll18);
  Alcotest.(check string) "jacobi unfused digest" "e1a08727634c4bbbf17bcdc1f7b735d7"
    (Sim.digest jacobi);
  Alcotest.(check string) "calc explicit digest" "1a12cf22f0e1b89600a4cf13c7b78e80"
    (Sim.digest explicit)

let test_digest_discriminates () =
  let base () = sample_request ~n:48 ~nprocs:3 () in
  let d0 = Sim.digest (base ()) in
  Alcotest.(check string) "digest deterministic" d0 (Sim.digest (base ()));
  let variants =
    [
      ("mode", sample_request ~mode:Sim.Miss_only ~n:48 ~nprocs:3 ());
      ("size", sample_request ~n:52 ~nprocs:3 ());
      ("nprocs", sample_request ~n:48 ~nprocs:4 ());
      ( "machine",
        Sim.fused ~strip:6 ~mode:Sim.Run_compressed ~machine:Machine.ksr2
          ~nprocs:3
          (Lf_kernels.Ll18.program ~n:48 ()) );
      ( "layout",
        let p = Lf_kernels.Ll18.program ~n:48 () in
        Sim.fused ~strip:6 ~layout:(Partition.padded ~pad:1 p.Ir.decls)
          ~mode:Sim.Run_compressed ~machine:Machine.convex ~nprocs:3 p );
      ( "strip",
        let p = Lf_kernels.Ll18.program ~n:48 () in
        Sim.fused ~strip:7 ~layout:(Partition.contiguous p.Ir.decls)
          ~mode:Sim.Run_compressed ~machine:Machine.convex ~nprocs:3 p );
    ]
  in
  List.iter
    (fun (what, req) ->
      if Sim.digest req = d0 then
        Alcotest.failf "digest ignores the %s field" what)
    variants

(* ------------------------------------------------------------------ *)
(* Per-module fingerprints                                             *)

(* of_request folds in exactly the modules the request depends on:
   ir/cache/machine always; schedule only when the request realises a
   schedule (not Explicit); derive only when a Fused request must
   derive its shift/peel amounts; partition only for the default
   layout. *)
let test_fingerprint_modules () =
  let names r = List.map fst (Sim.Fingerprint.of_request r) in
  let p = Lf_kernels.Ll18.program ~n:32 () in
  let layout = Partition.contiguous p.Ir.decls in
  let machine = Machine.convex in
  let fused = Sim.fused ~strip:6 ~layout ~machine ~nprocs:2 p in
  Alcotest.(check (list string)) "fused, explicit layout"
    [ "cache"; "derive"; "ir"; "machine"; "schedule" ]
    (names fused);
  let unfused = Sim.unfused ~machine ~nprocs:2 p in
  Alcotest.(check (list string)) "unfused, default layout"
    [ "cache"; "ir"; "machine"; "partition"; "schedule" ]
    (names unfused);
  let explicit =
    Sim.of_schedule ~layout ~machine (Schedule.unfused ~nprocs:2 p)
  in
  Alcotest.(check (list string)) "explicit schedule, explicit layout"
    [ "cache"; "ir"; "machine" ]
    (names explicit)

(* An override moves the digests of exactly the dependent requests:
   bumping "derive" re-keys fused-with-derivation requests and nothing
   else; clearing restores every digest. *)
let test_fingerprint_override_digests () =
  Sim.Fingerprint.clear_overrides ();
  let p = Lf_kernels.Ll18.program ~n:32 () in
  let layout = Partition.contiguous p.Ir.decls in
  let machine = Machine.convex in
  let fused = Sim.fused ~strip:6 ~layout ~machine ~nprocs:2 p in
  let unfused = Sim.unfused ~layout ~machine ~nprocs:2 p in
  let df0 = Sim.digest fused and du0 = Sim.digest unfused in
  (match Sim.Fingerprint.set_override "derive" "test-bump" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "override visible" "test-bump"
    (Sim.Fingerprint.value "derive");
  Alcotest.(check bool) "fused digest moved" true (Sim.digest fused <> df0);
  Alcotest.(check string) "unfused digest unmoved" du0 (Sim.digest unfused);
  Sim.Fingerprint.clear_overrides ();
  Alcotest.(check string) "fused digest restored" df0 (Sim.digest fused);
  (match Sim.Fingerprint.set_spec "schedule=v2" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "set_spec applies" true (Sim.digest unfused <> du0);
  Sim.Fingerprint.clear_overrides ();
  (match Sim.Fingerprint.set_override "no-such-module" "x" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown module accepted");
  (match Sim.Fingerprint.set_spec "derive=has space" with
  | Error _ -> ()
  | Ok () ->
    Sim.Fingerprint.clear_overrides ();
    Alcotest.fail "whitespace fingerprint accepted");
  match Sim.Fingerprint.set_spec "garbage" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "spec without '=' accepted"

(* fingerprint_stats: entries written under the live set are live;
   after an override the old entries read as stale, per-pair counts
   split accordingly. *)
let test_fingerprint_stats () =
  Tutil.with_temp_dir @@ fun dir ->
  Sim.Fingerprint.clear_overrides ();
  let store = Store.open_ ~dir () in
  let add req =
    ignore (Store.add store req (Exec.run_opts Exec.default_opts req))
  in
  add (sample_request ~n:24 ());
  add (sample_request ~n:28 ());
  let st = Store.fingerprint_stats store in
  Alcotest.(check int) "scanned both" 2 st.Store.fp_scanned;
  Alcotest.(check int) "none unreadable" 0 st.Store.fp_unreadable;
  Alcotest.(check int) "none stale under live set" 0 st.Store.fp_stale;
  Alcotest.(check bool) "derive pair counted" true
    (List.assoc_opt ("derive", Sim.Fingerprint.value "derive") st.Store.fp_counts
    = Some 2);
  (match Sim.Fingerprint.set_override "derive" "stats-bump" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  add (sample_request ~n:32 ());
  let st = Store.fingerprint_stats store in
  Alcotest.(check int) "three entries scanned" 3 st.Store.fp_scanned;
  Alcotest.(check int) "old entries now stale" 2 st.Store.fp_stale;
  Alcotest.(check bool) "both derive versions counted" true
    (List.assoc_opt ("derive", "stats-bump") st.Store.fp_counts = Some 1
    && List.assoc_opt ("derive", "lf-derive-1") st.Store.fp_counts = Some 2);
  Sim.Fingerprint.clear_overrides ()

let test_mode_strings () =
  List.iter
    (fun m ->
      match Sim.mode_of_string (Sim.mode_to_string m) with
      | Ok m' -> Alcotest.(check bool) "mode round trip" true (m = m')
      | Error e -> Alcotest.fail e)
    [ Sim.Miss_only; Sim.Run_compressed ];
  (match Sim.mode_of_string "run-compressed" with
  | Ok Sim.Run_compressed -> ()
  | _ -> Alcotest.fail "run-compressed alias rejected");
  List.iter
    (fun s ->
      match Sim.mode_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "engine %s accepted" s)
    [ "warp-speed"; "full" ]

(* ------------------------------------------------------------------ *)
(* Cache.geometry (API-redesign satellite)                             *)

let test_cache_geometry () =
  let g = Cache.geometry ~footprint:4096 Cache.convex_cache in
  Alcotest.(check bool) "geometry carries the shape" true
    (g.Cache.shape = Cache.convex_cache && g.Cache.footprint = 4096);
  let via_geometry = Cache.of_geometry g in
  let via_create = Cache.create ~footprint:4096 Cache.convex_cache in
  Alcotest.(check bool) "create is of_geometry . geometry" true
    (Cache.config via_geometry = Cache.config via_create);
  Alcotest.(check bool) "presets match the configs" true
    ((Cache.ksr2_geometry ()).Cache.shape = Cache.ksr2_cache
    && (Cache.convex_geometry ()).Cache.shape = Cache.convex_cache
    && (Cache.ksr2_geometry ()).Cache.footprint = 0);
  match Cache.of_geometry (Cache.geometry { capacity = 100; line = 3; assoc = 1 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_geometry accepted a non-power-of-two line"

(* ------------------------------------------------------------------ *)

let machine_cases =
  [ (Machine.convex, "convex"); (Machine.ksr2, "ksr2") ]

let suite =
  List.concat_map
    (fun (machine, name) ->
      [
        Tutil.to_alcotest (prop_builders_equal_explicit ~machine name);
      ])
    machine_cases
  @ [
      Tutil.to_alcotest prop_store_roundtrip;
      Alcotest.test_case "store round trip" `Quick test_store_roundtrip;
      Alcotest.test_case "store corruption tolerance" `Quick
        test_store_corruption;
      Alcotest.test_case "store concurrent writers" `Quick
        test_store_concurrent_writers;
      Alcotest.test_case "store stats/gc/clear" `Quick
        test_store_stats_gc_clear;
      Alcotest.test_case "batch dedup and warm hits" `Quick
        test_batch_dedup_and_hits;
      Alcotest.test_case "sharded batch bit-identical" `Quick
        test_batch_parallel_identical;
      Alcotest.test_case "batch failure propagation" `Quick
        test_batch_failure_propagation;
      Alcotest.test_case "batch per-job timeout" `Quick test_batch_timeout;
      Alcotest.test_case "run_one sink always computes" `Quick
        test_run_one_sink_always_computes;
      Alcotest.test_case "digest golden values" `Quick test_digest_golden;
      Alcotest.test_case "digest discriminates every field" `Quick
        test_digest_discriminates;
      Alcotest.test_case "fingerprint module dependence" `Quick
        test_fingerprint_modules;
      Alcotest.test_case "fingerprint overrides re-key dependents only"
        `Quick test_fingerprint_override_digests;
      Alcotest.test_case "store fingerprint stats" `Quick
        test_fingerprint_stats;
      Alcotest.test_case "mode string round trip" `Quick test_mode_strings;
      Alcotest.test_case "Cache.geometry record" `Quick test_cache_geometry;
    ]
