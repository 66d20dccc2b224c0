(* The domain-parallel engine and its two replay tiers.

   The tentpole invariant of the host-parallel simulator: the result of
   [Exec.run_opts] — cycles, per-phase cycles, per-processor misses,
   and everything an attached sink records — is bit-identical for every
   [jobs] value, and the run-compressed tier is bit-identical to the
   scalar miss-only replay.  Checked as QCheck properties over the
   paper's six kernels (LL18, calc, jacobi, filter, tomcatv, hydro2d)
   with random grids, strips, layouts and jobs in 1..8, and directed
   tests for the two tiers, explicit pools, and the LF_JOBS default.
   Both tiers are also checked against an address oracle that shares
   no code with the engine (Tutil.replay_addresses). *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Cache = Lf_cache.Cache
module Obs = Lf_obs.Obs
module Pool = Lf_parallel.Pool

open QCheck

(* ------------------------------------------------------------------ *)
(* Kernel pool: the six programs of the paper's evaluation, scaled to
   test size.  Apps contribute their first fusible sequence. *)

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
  jobs : int;
  steps : int;
}

let gen_case =
  let open Gen in
  let* kernel = int_range 0 (Array.length kernels - 1) in
  let* n = int_range 24 48 in
  let* nprocs = int_range 1 6 in
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
  let* jobs = int_range 1 8 in
  let* steps = int_range 1 2 in
  return { kernel; n; nprocs; strip; fuse; pick; jobs; steps }

let arb_case =
  make
    ~print:(fun c ->
      Printf.sprintf "%s n=%d nprocs=%d strip=%d fused=%b %s jobs=%d steps=%d"
        (fst kernels.(c.kernel))
        c.n c.nprocs c.strip c.fuse
        (match c.pick with
        | L_contiguous -> "contiguous"
        | L_padded p -> Printf.sprintf "pad:%d" p
        | L_partitioned -> "partitioned")
        c.jobs c.steps)
    gen_case

let results_identical = Tutil.results_identical

let sinks_identical a b =
  Obs.totals a = Obs.totals b
  && Obs.proc_misses a = Obs.proc_misses b
  && Obs.barrier_cycles a = Obs.barrier_cycles b
  && Obs.trace_json a = Obs.trace_json b

let schedule_of_case c p =
  if c.fuse then Schedule.fused ~nprocs:c.nprocs ~strip:c.strip p
  else Schedule.unfused ~nprocs:c.nprocs p

let prop_parallel_identical ~machine name =
  Test.make ~count:50
    ~name:("jobs>1 is bit-identical to serial (" ^ name ^ ")")
    arb_case
    (fun c ->
      let _, mk = kernels.(c.kernel) in
      let p = mk c.n in
      match schedule_of_case c p with
      | exception Schedule.Illegal _ -> true
      | exception Invalid_argument _ -> true (* more procs than iters *)
      | sched ->
        let layout = layout_of_pick ~machine c.pick p in
        let s_sink = Obs.create () and j_sink = Obs.create () in
        (* the scalar tier; Run_compressed under jobs > 1 is covered
           by prop_run_compressed_identical *)
        let req =
          Sim.of_schedule ~mode:Exec.Miss_only ~layout ~machine
            ~steps:c.steps sched
        in
        let serial = Exec.run_opts (Exec.opts ~sink:s_sink ~jobs:1 ()) req in
        let par = Exec.run_opts (Exec.opts ~sink:j_sink ~jobs:c.jobs ()) req in
        if not (results_identical serial par) then
          Test.fail_report "parallel result differs from serial";
        if not (sinks_identical s_sink j_sink) then
          Test.fail_report "sink contents differ under jobs>1";
        true)

(* ------------------------------------------------------------------ *)
(* Run-compressed engine: bit-identity against the scalar replay        *)

(* Cache geometries the batched engine specialises on: the two machine
   presets, a non-power-of-two set count (3072 sets forces the modulo
   set-index path), small conflict-prone caches at associativities
   1/2/4 (small capacity makes the steady-state and scalar-fallback
   paths fire, not just the all-hit fast-forward), and a 4-entry TLB
   that evicts pages, and so rewrites its way index, in both tiers. *)
let geometries =
  let with_cache base name cache =
    { base with Machine.mname = name; cache }
  in
  [|
    ("ksr2", Machine.ksr2);
    ("convex", Machine.convex);
    ( "np2",
      with_cache Machine.convex "np2"
        { Cache.capacity = 192 * 1024; line = 64; assoc = 1 } );
    ( "small-dm",
      with_cache Machine.convex "small-dm"
        { Cache.capacity = 8 * 1024; line = 64; assoc = 1 } );
    ( "small-2w",
      with_cache Machine.ksr2 "small-2w"
        { Cache.capacity = 8 * 1024; line = 64; assoc = 2 } );
    ( "small-4w",
      with_cache Machine.ksr2 "small-4w"
        { Cache.capacity = 16 * 1024; line = 64; assoc = 4 } );
    ( "small-tlb",
      {
        Machine.ksr2 with
        Machine.mname = "small-tlb";
        tlb = Some { Cache.capacity = 4 * 4096; line = 4096; assoc = 4 };
      } );
  |]

let gen_run_case =
  let open Gen in
  let* c = gen_case in
  let* geom = int_range 0 (Array.length geometries - 1) in
  let* jobs = oneofl [ 1; 4 ] in
  return ({ c with jobs }, geom)

let print_run_case (c, geom) =
  Printf.sprintf "%s geom=%s n=%d nprocs=%d strip=%d fused=%b %s jobs=%d"
    (fst kernels.(c.kernel))
    (fst geometries.(geom))
    c.n c.nprocs c.strip c.fuse
    (match c.pick with
    | L_contiguous -> "contiguous"
    | L_padded p -> Printf.sprintf "pad:%d" p
    | L_partitioned -> "partitioned")
    c.jobs

let arb_run_case = make ~print:print_run_case gen_run_case

(* Every observable of the run-compressed engine — counters, cycles,
   the attached sink's totals and event stream — must be bit-identical
   to the scalar address-stream replay, for every geometry and jobs
   count. *)
let prop_run_compressed_identical =
  Test.make ~count:120
    ~name:"run-compressed engine is bit-identical to scalar replay"
    arb_run_case
    (fun (c, geom) ->
      let _, mk = kernels.(c.kernel) in
      let p = mk c.n in
      match schedule_of_case c p with
      | exception Schedule.Illegal _ -> true
      | exception Invalid_argument _ -> true
      | sched ->
        let machine = snd geometries.(geom) in
        let layout = layout_of_pick ~machine c.pick p in
        let s_sink = Obs.create () and r_sink = Obs.create () in
        let scalar =
          Exec.run_opts (Exec.opts ~sink:s_sink ~jobs:1 ())
            (Sim.of_schedule ~mode:Exec.Miss_only ~layout ~machine
               ~steps:c.steps sched)
        in
        let runs =
          Exec.run_opts (Exec.opts ~sink:r_sink ~jobs:c.jobs ())
            (Sim.of_schedule ~mode:Exec.Run_compressed ~layout ~machine
               ~steps:c.steps sched)
        in
        if not (results_identical scalar runs) then
          Test.fail_report "run-compressed result differs from scalar replay";
        if not (sinks_identical s_sink r_sink) then
          Test.fail_report "run-compressed sink differs from scalar replay";
        (* recorded profiles agree table by table *)
        if
          List.exists
            (fun by -> Obs.breakdown s_sink ~by <> Obs.breakdown r_sink ~by)
            [ Obs.By_array; Obs.By_phase; Obs.By_proc ]
        then Test.fail_report "run-compressed breakdown differs";
        true)

(* [b(i) = a(i + shift)] over [0, n) with n = 24: out of bounds at
   i = n - shift for a positive shift. *)
let oob_n = 24

let shifted_copy ~shift =
  let i = Ir.av "i" in
  {
    Ir.pname = "oob";
    decls =
      List.map (fun a -> { Ir.aname = a; extents = [ oob_n ] }) [ "a"; "b" ];
    nests =
      [
        {
          Ir.nid = "L1";
          levels =
            [ { Ir.lvar = "i"; lo = 0; hi = oob_n - 1; parallel = true } ];
          body =
            [
              Ir.stmt (Ir.aref "b" [ i ])
                (Ir.Read (Ir.aref "a" [ Ir.av ~c:shift "i" ]));
            ];
        };
      ];
  }

(* The run engine must fail exactly like the scalar one on a schedule
   that walks out of bounds: same exception, same message. *)
let test_run_compressed_oob () =
  let n = oob_n in
  let sched = Schedule.unfused ~nprocs:1 (shifted_copy ~shift:2) in
  let msg mode =
    match
      Exec.run_opts Exec.default_opts
        (Sim.of_schedule ~machine:Machine.convex ~mode sched)
    with
    | _ -> Alcotest.fail "expected Out_of_bounds"
    | exception Interp.Out_of_bounds m -> m
  in
  Alcotest.(check string)
    "identical out-of-bounds failure" (msg Exec.Miss_only)
    (msg Exec.Run_compressed);
  (* the interpreter's wording: array, dimension, index *)
  Alcotest.(check string)
    "names the array" (Printf.sprintf "a dim 0 index %d not in [0,%d)" n n)
    (msg Exec.Miss_only)

(* ------------------------------------------------------------------ *)
(* Recycled cache instances                                             *)

(* [f ()] on a freshly spawned domain, whose engine has no instances of
   an earlier run to recycle. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let run_with_sink ~jobs req =
  let sink = Obs.create () in
  let r = Exec.run_opts (Exec.opts ~sink ~jobs ()) req in
  (r, sink)

let modes = [ Exec.Miss_only; Exec.Run_compressed ]

(* A run that reuses the caches and TLBs of an earlier run on its
   domain (same machine, program and layout, hence the same geometry,
   but another variant, mode, processor count or step count) must be
   bit-identical, sink included, to the same request run on fresh
   instances. *)
let prop_recycled_identical =
  let gen =
    let open Gen in
    let* ((c, _) as first) = gen_run_case in
    let* mode1 = oneofl modes in
    let* fuse = bool in
    let* nprocs = int_range 1 6 in
    let* steps = int_range 1 2 in
    let* mode2 = oneofl modes in
    let c2 = { c with fuse; nprocs; steps } in
    let c2 =
      if c2 = c && mode2 = mode1 then { c2 with fuse = not c.fuse } else c2
    in
    return (first, mode1, c2, mode2)
  in
  let print (first, mode1, c2, mode2) =
    Printf.sprintf "%s %s, then fused=%b nprocs=%d steps=%d %s"
      (print_run_case first) (Sim.mode_to_string mode1) c2.fuse c2.nprocs
      c2.steps (Sim.mode_to_string mode2)
  in
  Test.make ~count:80 ~name:"recycled caches give fresh results"
    (make ~print gen)
    (fun ((c, geom), mode1, c2, mode2) ->
      let _, mk = kernels.(c.kernel) in
      let p = mk c.n in
      let machine = snd geometries.(geom) in
      let layout = layout_of_pick ~machine c.pick p in
      let request c mode =
        match schedule_of_case c p with
        | exception (Schedule.Illegal _ | Invalid_argument _) -> None
        | sched ->
          Some (Sim.of_schedule ~mode ~layout ~machine ~steps:c.steps sched)
      in
      match (request c mode1, request c2 mode2) with
      | Some first, Some second ->
        ignore (Exec.run_opts (Exec.opts ~jobs:c.jobs ()) first);
        let r, sink = run_with_sink ~jobs:c.jobs second in
        let r0, sink0 =
          on_fresh_domain (fun () -> run_with_sink ~jobs:1 second)
        in
        if not (results_identical r r0) then
          Test.fail_report "recycled result differs from a fresh domain's";
        if not (sinks_identical sink sink0) then
          Test.fail_report "recycled sink differs from a fresh domain's";
        true
      | _ -> true)

(* A run that raises leaves nothing behind that a later run of the same
   geometry could see: valid, out of bounds, valid again, all on this
   domain, against the valid run on a fresh domain. *)
let test_recycle_after_oob () =
  let machine = Machine.convex in
  let req shift =
    Sim.of_schedule ~machine (Schedule.unfused ~nprocs:2 (shifted_copy ~shift))
  in
  let valid = req 0 in
  let run () = run_with_sink ~jobs:1 valid in
  let fresh, fresh_sink = on_fresh_domain run in
  ignore (run ());
  (match Exec.run_opts (Exec.opts ~jobs:1 ()) (req 2) with
  | _ -> Alcotest.fail "expected Out_of_bounds"
  | exception Interp.Out_of_bounds _ -> ());
  let r, sink = run () in
  Alcotest.(check bool) "result after a failed run" true
    (results_identical fresh r);
  Alcotest.(check bool) "sink after a failed run" true
    (sinks_identical fresh_sink sink)

(* Two systhreads of one domain share its recycled instances.  Each run
   takes the domain's whole list at once, so the threads hand instances
   to each other between runs but never use one together: 40 runs per
   thread of unfused and fused ll18 on the Convex, one footprint, each
   against its fresh-domain reference. *)
let test_recycle_two_threads () =
  let p = Lf_kernels.Ll18.program ~n:96 () in
  let machine = Machine.convex in
  let reqs =
    [| Sim.unfused ~machine ~nprocs:4 p; Sim.fused ~machine ~nprocs:4 p |]
  in
  let run req = Exec.run_opts (Exec.opts ~jobs:1 ()) req in
  let fresh = on_fresh_domain (fun () -> Array.map run reqs) in
  let failure = Atomic.make None in
  let fail msg = ignore (Atomic.compare_and_set failure None (Some msg)) in
  let worker k () =
    for i = 0 to 39 do
      let j = (i + k) mod 2 in
      match run reqs.(j) with
      | r ->
        if not (results_identical r fresh.(j)) then
          fail (Printf.sprintf "thread %d run %d: result differs" k i)
      | exception e ->
        fail
          (Printf.sprintf "thread %d run %d raised %s" k i
             (Printexc.to_string e))
    done
  in
  List.iter Thread.join (List.init 2 (fun k -> Thread.create (worker k) ()));
  Option.iter Alcotest.fail (Atomic.get failure)

(* ------------------------------------------------------------------ *)
(* An address oracle the engine does not share                          *)

(* Both tiers locate a row's first addresses and advance them by the
   same compiled [istride], so their agreement cannot catch a wrong
   stride.  [Tutil.replay_addresses] evaluates every subscript from the
   IR instead.  Every kernel's rows step the last array dimension, so a
   third of the cases reverse each nest's loops: their rows step an
   outer dimension, whose stride is a whole (padded) row.  Another third
   schedule the kernel by alignment and replication, whose replicated
   statements are guarded: ll18, calc and tomcatv replicate 2, 23 and 4
   statements.  Filter and hydro2d, whose replication cascades to 1249
   statements, are left out of that third: one such hydro2d case kept
   the oracle busy for over 40 s. *)
type source = As_written | Interchanged | Alignrep

let interchange (p : Ir.program) =
  let rev (n : Ir.nest) = { n with Ir.levels = List.rev n.Ir.levels } in
  { p with Ir.nests = List.map rev p.Ir.nests }

let prop_address_oracle =
  let print (rc, src) =
    print_run_case rc
    ^
    match src with
    | As_written -> ""
    | Interchanged -> " interchanged"
    | Alignrep -> " alignrep"
  in
  Test.make ~count:60 ~name:"both tiers agree with an address oracle"
    (make ~print
       Gen.(pair gen_run_case (oneofl [ As_written; Interchanged; Alignrep ])))
    (fun ((c, geom), src) ->
      let _, mk = kernels.(c.kernel) in
      let p = mk c.n in
      let machine = snd geometries.(geom) in
      let sched =
        match
          match src with
          | As_written -> Some (schedule_of_case c p)
          | Interchanged -> Some (schedule_of_case c (interchange p))
          | Alignrep -> (
            match Lf_core.Alignrep.transform p with
            | Ok r when r.Lf_core.Alignrep.replicated_stmts <= 32 ->
              Some (Lf_core.Alignrep.schedule ~nprocs:c.nprocs ~strip:c.strip r)
            | Ok _ | Error _ -> None)
        with
        | s -> s
        | exception (Schedule.Illegal _ | Invalid_argument _) -> None
      in
      match sched with
      | None -> true
      | Some sched ->
        let layout = layout_of_pick ~machine c.pick sched.Schedule.prog in
        let req mode =
          Sim.of_schedule ~mode ~layout ~machine ~steps:c.steps sched
        in
        let oracle = Tutil.replay_addresses (req Exec.Miss_only) in
        List.iter
          (fun mode ->
            let r = Exec.run_opts (Exec.opts ~jobs:c.jobs ()) (req mode) in
            Option.iter
              (Test.fail_reportf "%s: %s" (Sim.mode_to_string mode))
              (Tutil.replay_mismatch oracle r))
          modes;
        true)

(* Rows at the edges of the miss-only replay, each run through both
   tiers and the oracle, with and without a sink, on a machine without a
   TLB, the KSR2 and a 4-entry TLB, under a dense and a padded layout:
   - nest L1 reads [a] backwards along its row (a negative stride),
     [c] transposed (the innermost variable in the outer dimension, whose
     stride is the padded row length) and [d] at a fixed column (a zero
     stride);
   - nest L2's read [a(i, j + 1)] leaves the array only at j = n - 1,
     where its guard is false, so each of its rows fails the bounds
     check and takes the per-point walk;
   - nest L3 has no loops: its box is 0-d;
   - nest L4 writes [f] with no reads up to the middle of each row and
     then sums [a] and [c] into [b], so its rows' run-compressed
     segments hold one reference, then three;
   - a second phase holds boxes whose innermost range has one point or
     none, one whose outer range is empty, and one whose short rows
     cross L4's guard boundary. *)
let edge_n = 12

let edge_program =
  let n = edge_n in
  let i = Ir.av "i" and j = Ir.av "j" in
  let rows =
    [
      { Ir.lvar = "i"; lo = 0; hi = n - 1; parallel = true };
      { Ir.lvar = "j"; lo = 0; hi = n - 1; parallel = true };
    ]
  in
  let read a idx = Ir.Read (Ir.aref a idx) in
  {
    Ir.pname = "edges";
    decls =
      List.map
        (fun a -> { Ir.aname = a; extents = [ n; n ] })
        [ "a"; "b"; "c"; "d"; "e"; "f" ];
    nests =
      [
        {
          Ir.nid = "L1";
          levels = rows;
          body =
            [
              Ir.stmt (Ir.aref "b" [ i; j ])
                (Ir.Bin
                   ( Ir.Add,
                     read "a" [ i; Ir.affine ~const:(n - 1) [ (-1, "j") ] ],
                     Ir.Bin
                       (Ir.Add, read "c" [ j; i ], read "d" [ i; Ir.ac 0 ]) ));
            ];
        };
        {
          Ir.nid = "L2";
          levels = rows;
          body =
            [
              Ir.stmt
                ~guard:[ ("j", 0, n - 2) ]
                (Ir.aref "e" [ i; j ])
                (read "a" [ i; Ir.av ~c:1 "j" ]);
            ];
        };
        {
          Ir.nid = "L3";
          levels = [];
          body =
            [
              Ir.stmt
                (Ir.aref "e" [ Ir.ac 2; Ir.ac 3 ])
                (read "a" [ Ir.ac 1; Ir.ac 1 ]);
            ];
        };
        {
          Ir.nid = "L4";
          levels = rows;
          body =
            [
              Ir.stmt
                ~guard:[ ("j", 0, n / 2) ]
                (Ir.aref "f" [ i; j ])
                (Ir.Const 1.0);
              Ir.stmt
                ~guard:[ ("j", (n / 2) + 1, n - 1) ]
                (Ir.aref "b" [ i; j ])
                (Ir.Bin (Ir.Add, read "a" [ i; j ], read "c" [ i; j ]));
            ];
        };
      ];
  }

let edge_schedule =
  let n = edge_n in
  let box nest ranges = { Schedule.nest; ranges } in
  let all = (0, n - 1) in
  let half p = if p = 0 then (0, (n / 2) - 1) else (n / 2, n - 1) in
  {
    Schedule.prog = edge_program;
    nprocs = 2;
    grid = [| 2 |];
    phases =
      [
        Array.init 2 (fun p ->
            [
              box 0 [| half p; all |];
              box 1 [| half p; all |];
              box 2 [||];
              box 3 [| half p; all |];
            ]);
        [|
          [
            box 0 [| all; (4, 4) |];
            box 1 [| all; (n - 1, n - 1) |];
            box 0 [| (0, 3); (5, 4) |];
            box 1 [| (5, 4); all |];
          ];
          [
            box 2 [||];
            box 1 [| (3, 3); all |];
            box 3 [| all; ((n / 2) - 1, (n / 2) + 2) |];
          ];
        |];
      ];
    labels = [ "rows"; "edges" ];
  }

let test_row_replay_edges () =
  let no_tlb = { Machine.ksr2 with Machine.mname = "no-tlb"; tlb = None } in
  let decls = edge_program.Ir.decls in
  List.iter
    (fun (machine : Machine.config) ->
      List.iter
        (fun (lname, layout) ->
          let req mode =
            Sim.of_schedule ~mode ~layout ~machine ~steps:2 edge_schedule
          in
          let oracle = Tutil.replay_addresses (req Exec.Miss_only) in
          let tag = Printf.sprintf "%s %s" machine.Machine.mname lname in
          let miss, miss_sink = run_with_sink ~jobs:1 (req Exec.Miss_only) in
          let runs, runs_sink =
            run_with_sink ~jobs:1 (req Exec.Run_compressed)
          in
          let plain =
            Exec.run_opts (Exec.opts ~jobs:1 ()) (req Exec.Miss_only)
          in
          List.iter
            (fun (tier, r) ->
              Option.iter
                (Alcotest.failf "%s %s: %s" tag tier)
                (Tutil.replay_mismatch oracle r))
            [
              ("miss-only", miss);
              ("run-compressed", runs);
              ("miss-only without a sink", plain);
            ];
          Alcotest.(check bool) (tag ^ ": tiers bit-identical") true
            (results_identical miss runs && results_identical miss plain);
          Alcotest.(check bool) (tag ^ ": sinks identical") true
            (sinks_identical miss_sink runs_sink))
        [
          ("contiguous", Partition.contiguous decls);
          ("pad:3", Partition.padded ~pad:3 decls);
        ])
    [ no_tlb; Machine.ksr2; List.assoc "small-tlb" (Array.to_list geometries) ]

(* ------------------------------------------------------------------ *)
(* Directed tests                                                       *)

(* The paper's three kernels at a fixed size, fused and unfused: the
   default run-compressed tier against the scalar replay, including
   proc0 (the Figures 18/20 measure). *)
let test_miss_only_directed () =
  let machine = Machine.convex in
  List.iter
    (fun (name, (p : Ir.program)) ->
      let layout = Partition.contiguous p.Ir.decls in
      List.iter
        (fun fused ->
          let sched =
            if fused then Schedule.fused ~nprocs:4 ~strip:5 p
            else Schedule.unfused ~nprocs:4 p
          in
          let runs =
            Exec.run_opts Exec.default_opts
              (Sim.of_schedule ~layout ~machine sched)
          in
          let miss =
            Exec.run_opts Exec.default_opts
              (Sim.of_schedule ~mode:Exec.Miss_only ~layout ~machine sched)
          in
          let tag b = Printf.sprintf "%s fused=%b" name b in
          Alcotest.(check int)
            (tag fused ^ " misses") runs.Exec.total_misses
            miss.Exec.total_misses;
          Alcotest.(check int)
            (tag fused ^ " tlb") runs.Exec.tlb_misses miss.Exec.tlb_misses;
          Alcotest.(check int)
            (tag fused ^ " refs") runs.Exec.total_refs miss.Exec.total_refs;
          Alcotest.(check int)
            (tag fused ^ " proc0") (Exec.proc0_misses runs)
            (Exec.proc0_misses miss);
          Alcotest.(check bool)
            (tag fused ^ " cycles") true
            (runs.Exec.cycles = miss.Exec.cycles))
        [ false; true ])
    [
      ("ll18", Lf_kernels.Ll18.program ~n:40 ());
      ("calc", Lf_kernels.Calc.program ~n:40 ());
      ("filter", Lf_kernels.Filter.program ~rows:40 ~cols:24 ());
    ]

(* An explicitly supplied pool is reused across runs and steps and
   produces the same bits as the internal pool and the serial engine. *)
let test_explicit_pool () =
  let p = Lf_kernels.Ll18.program ~n:32 () in
  let machine = Machine.ksr2 in
  let sched = Schedule.fused ~nprocs:4 ~strip:4 p in
  let serial =
    Exec.run_opts (Exec.opts ~jobs:1 ())
      (Sim.of_schedule ~machine ~steps:2 sched)
  in
  Pool.with_pool 3 (fun pool ->
      let a =
        Exec.run_opts (Exec.opts ~pool ())
          (Sim.of_schedule ~machine ~steps:2 sched)
      in
      let b =
        Exec.run_opts (Exec.opts ~pool ())
          (Sim.of_schedule ~machine ~steps:2 sched)
      in
      Alcotest.(check bool) "pooled run = serial" true
        (results_identical serial a);
      Alcotest.(check bool) "pool reusable across runs" true
        (results_identical a b))

(* An out-of-bounds access raised inside a worker domain must surface
   on the caller (the pool may not strand the join), and the engine
   must stay usable afterwards. *)
let test_parallel_exception_propagates () =
  let sched = Schedule.unfused ~nprocs:3 (shifted_copy ~shift:2) in
  (match
     Exec.run_opts (Exec.opts ~jobs:2 ())
       (Sim.of_schedule ~machine:Machine.ksr2 sched)
   with
  | _ -> Alcotest.fail "expected Out_of_bounds from worker"
  | exception Interp.Out_of_bounds _ -> ());
  (* the shared pool survives the failed region *)
  let p = Lf_kernels.Jacobi.program ~n:24 () in
  let good = Schedule.unfused ~nprocs:3 p in
  let serial =
    Exec.run_opts (Exec.opts ~jobs:1 ())
      (Sim.of_schedule ~machine:Machine.ksr2 good)
  in
  let par =
    Exec.run_opts (Exec.opts ~jobs:2 ())
      (Sim.of_schedule ~machine:Machine.ksr2 good)
  in
  Alcotest.(check bool) "engine usable after worker exception" true
    (results_identical serial par)

(* Words [f ()] allocates straight into this domain's major heap:
   [Gc.counters] is per domain, and its major words less its promoted
   words are the direct ones. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  ignore (f ());
  let _, promoted1, major1 = Gc.counters () in
  int_of_float (major1 -. promoted1 -. (major0 -. promoted0))

(* Neither tier allocates per simulated access: a cache probe, a TLB
   probe and a statement guard cost no heap words, so a serial run's
   minor allocation divided by its references stays far below one word
   (set-up, the schedule and the result are all that remain: 0.05-0.3
   words here).  The bound is half a word because one closure per
   statement instance, about 0.7 words per reference on ll18, must
   fail it too.  The first run warms the engine's lazily built state.

   Nor does a run allocate its cache state anew.  On a fresh domain the
   first run builds the instances, which on the direct-mapped Convex
   is one tag word per set (and a header) per processor, with no LRU
   stamps; the second recycles them and allocates nothing directly in
   the major heap, on either machine. *)
let test_allocation_per_ref () =
  let p = Lf_kernels.Ll18.program ~n:64 () in
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun (tname, mode) ->
          List.iter
            (fun fused ->
              let req =
                if fused then Sim.fused ~mode ~machine ~nprocs:4 p
                else Sim.unfused ~mode ~machine ~nprocs:4 p
              in
              let run () = Exec.run_opts (Exec.opts ~jobs:1 ()) req in
              ignore (run ());
              let w0 = Gc.minor_words () in
              let r = run () in
              let words = Gc.minor_words () -. w0 in
              let per_ref = words /. float_of_int r.Exec.total_refs in
              if per_ref >= 0.5 then
                Alcotest.failf "%s %s fused=%b: %.2f words per reference"
                  mname tname fused per_ref)
            [ false; true ])
        [ ("miss-only", Exec.Miss_only); ("runs", Exec.Run_compressed) ])
    [ ("ksr2", Machine.ksr2); ("convex", Machine.convex) ];
  List.iter
    (fun (mname, (machine : Machine.config)) ->
      let nprocs = 4 in
      let req = Sim.fused ~machine ~nprocs p in
      let run () = Exec.run_opts (Exec.opts ~jobs:1 ()) req in
      let first, second =
        on_fresh_domain (fun () ->
            let first = direct_major_words run in
            (first, direct_major_words run))
      in
      let c = machine.Machine.cache in
      if c.Cache.assoc = 1 then begin
        let nsets = c.Cache.capacity / c.Cache.line in
        if first > nprocs * (nsets + 1) then
          Alcotest.failf "%s: first run allocated %d major words, above %d"
            mname first
            (nprocs * (nsets + 1))
      end;
      Alcotest.(check int) (mname ^ ": second run's major words") 0 second)
    [ ("ksr2", Machine.ksr2); ("convex", Machine.convex) ]

let test_jobs_env_default () =
  (* set_default_jobs overrides; restore to the env-derived default *)
  let d0 = Exec.default_jobs () in
  Exec.set_default_jobs 3;
  Alcotest.(check int) "override" 3 (Exec.default_jobs ());
  Exec.set_default_jobs d0;
  Alcotest.(check int) "restored" d0 (Exec.default_jobs ())

let suite =
  [
    Tutil.to_alcotest (prop_parallel_identical ~machine:Machine.ksr2 "ksr2");
    Tutil.to_alcotest (prop_parallel_identical ~machine:Machine.convex "convex");
    Tutil.to_alcotest prop_run_compressed_identical;
    Tutil.to_alcotest prop_recycled_identical;
    Tutil.to_alcotest prop_address_oracle;
    Alcotest.test_case "miss-only row replay at the edges" `Quick
      test_row_replay_edges;
    Alcotest.test_case "recycled caches after an out-of-bounds run" `Quick
      test_recycle_after_oob;
    Alcotest.test_case "two threads of one domain recycle caches" `Quick
      test_recycle_two_threads;
    Alcotest.test_case "run-compressed: out-of-bounds parity" `Quick
      test_run_compressed_oob;
    Alcotest.test_case "miss-only: ll18/calc/filter" `Quick
      test_miss_only_directed;
    Alcotest.test_case "explicit pool reuse" `Quick test_explicit_pool;
    Alcotest.test_case "worker exception propagates" `Quick
      test_parallel_exception_propagates;
    Alcotest.test_case "default jobs override" `Quick test_jobs_env_default;
    Alcotest.test_case "engine tiers allocate less than one word per reference"
      `Quick test_allocation_per_ref;
  ]
