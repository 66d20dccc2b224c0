(* The native execution backend (lf_native) and its measurement
   harness.

   Four obligations:
   - Bench_timer's aggregation policy is pure arithmetic — pinned here
     sample by sample (min over all, outliers out of median/mean,
     malformed policies refused);
   - native execution is bit-identical to the reference interpreter
     for every kernel x schedule variant x domain count the paper
     cares about — direct cases plus a QCheck property with
     non-divisible strips and peel-heavy sizes — for bodies whose
     inner loop carries dependences, which the compiled nests must
     keep in point order, and for every constant down to its bits;
   - an out-of-range subscript fails with the interpreter's typed
     error, never an untyped exception or a stranded worker, and a
     missing C compiler with the backend's own typed error, while
     programs compiled before still run;
   - the measured cost tier verifies before it times, memoises in
     memory only, and the Wallclock search never returns a
     configuration measured slower than the paper default. *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Derive = Lf_core.Derive
module Schedule = Lf_core.Schedule
module Wavefront = Lf_core.Wavefront
module Machine = Lf_machine.Machine
module Pool = Lf_parallel.Pool
module Native = Lf_native.Native
module Bench_timer = Lf_native.Bench_timer
module Space = Lf_tune.Space
module Cost = Lf_tune.Cost
module Search = Lf_tune.Search

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)
(* Bench_timer aggregation (pure)                                      *)

let test_aggregate_min_of_k () =
  let m = Bench_timer.aggregate [| 3.0; 1.0; 2.0 |] in
  check flt "min over all samples" 1.0 m.Bench_timer.min_s;
  check int "all kept" 3 m.Bench_timer.kept;
  check flt "median" 2.0 m.Bench_timer.median_s;
  check flt "mean" 2.0 m.Bench_timer.mean_s

let test_aggregate_outlier_rejection () =
  (* raw median 1.0, cutoff 3.0 -> 100.0 is rejected from median/mean
     but the minimum is untouched by construction *)
  let m = Bench_timer.aggregate [| 1.0; 0.9; 1.1; 100.0; 1.0 |] in
  check int "outlier dropped" 4 m.Bench_timer.kept;
  check flt "min unaffected" 0.9 m.Bench_timer.min_s;
  check flt "median of kept" 1.0 m.Bench_timer.median_s;
  check bool "mean excludes the outlier" true (m.Bench_timer.mean_s < 1.05)

let test_aggregate_even_median () =
  let m = Bench_timer.aggregate [| 4.0; 1.0; 3.0; 2.0 |] in
  check flt "average of the two middles" 2.5 m.Bench_timer.median_s

let test_aggregate_cutoff_from_raw_median () =
  (* the slow half cannot vote itself back in: with cutoff 2 and raw
     median 2.0, the 10.0 samples are out even though they would be
     within 2x of a recomputed (kept) median that included them *)
  let m =
    Bench_timer.aggregate
      ~policy:{ Bench_timer.default_policy with outlier_cutoff = 2.0 }
      [| 1.0; 2.0; 10.0 |]
  in
  check int "kept" 2 m.Bench_timer.kept;
  check flt "median of kept" 1.5 m.Bench_timer.median_s

let test_aggregate_rejects_malformed () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check bool "empty samples" true
    (raises (fun () -> Bench_timer.aggregate [||]));
  check bool "zero repetitions" true
    (raises (fun () ->
         Bench_timer.aggregate
           ~policy:{ Bench_timer.default_policy with repetitions = 0 }
           [| 1.0 |]));
  check bool "negative warmup" true
    (raises (fun () ->
         Bench_timer.aggregate
           ~policy:{ Bench_timer.default_policy with warmup = -1 }
           [| 1.0 |]));
  check bool "cutoff below 1" true
    (raises (fun () ->
         Bench_timer.aggregate
           ~policy:{ Bench_timer.default_policy with outlier_cutoff = 0.5 }
           [| 1.0 |]))

let test_measure_counts_reps () =
  let prepared = ref 0 and ran = ref 0 in
  let m =
    Bench_timer.measure
      ~policy:{ warmup = 2; repetitions = 3; outlier_cutoff = 3.0 }
      ~prepare:(fun () -> incr prepared)
      (fun () -> incr ran)
  in
  check int "warmup + timed runs" 5 !ran;
  check int "prepare before every run" 5 !prepared;
  check int "one sample per timed rep" 3 (Array.length m.Bench_timer.samples)

(* ------------------------------------------------------------------ *)
(* Bit-identity: direct cases                                          *)

let fig9 n = Tutil.chain_program ~lo:2 ~hi:n [ [ 0 ]; [ 1; -1 ]; [ 1; -1 ] ]

let heat2d () =
  Lf_front.Parse.program_of_file "../examples/programs/heat2d.loop"

let assert_identical name sched =
  match Native.verify sched with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

let test_native_fig9_two_domains () =
  let p = fig9 40 in
  let d = Derive.of_program ~depth:1 p in
  assert_identical "fig9 fused P=2"
    (Schedule.fused ~nprocs:2 ~strip:7 ~derive:d p);
  assert_identical "fig9 unfused P=2" (Schedule.unfused ~nprocs:2 p)

let test_native_heat2d_two_domains () =
  let p = heat2d () in
  let depth = max 1 (min 2 (Lf_dep.Dep.max_parallel_depth p)) in
  let d = Derive.of_program ~depth p in
  assert_identical "heat2d fused P=2"
    (Schedule.fused ~nprocs:2 ~strip:5 ~derive:d p);
  assert_identical "heat2d unfused P=2" (Schedule.unfused ~nprocs:2 p)

let test_native_jacobi_grid () =
  (* depth-2 fusion: a 2x2 processor grid with per-dimension peels *)
  let p = Lf_kernels.Jacobi.program ~n:20 () in
  let d = Derive.of_program ~depth:2 p in
  assert_identical "jacobi fused P=4"
    (Schedule.fused ~nprocs:4 ~strip:6 ~derive:d p)

let test_native_steps_match_interp () =
  (* multi-step runs repeat the whole schedule like Interp ~steps *)
  let p = fig9 30 in
  let d = Derive.of_program ~depth:1 p in
  let sched = Schedule.fused ~nprocs:2 ~strip:5 ~derive:d p in
  (match Native.verify ~steps:3 sched with
  | Ok () -> ()
  | Error m -> Alcotest.failf "steps=3: %s" m);
  let bufs = Native.run ~steps:3 sched in
  check bool "checksum matches the 3-step reference" true
    (Native.checksum bufs = Interp.checksum (Interp.run ~steps:3 p))

let test_native_pool_size_mismatch () =
  let p = fig9 30 in
  let sched = Schedule.unfused ~nprocs:2 p in
  Pool.with_pool 3 (fun pool ->
      match Native.run ~pool sched with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument on pool/nprocs mismatch")

let test_native_buffer_size_mismatch () =
  (* the compiled nests index buffers unchecked: buffers created for a
     smaller program are refused before any worker runs *)
  let sched = Schedule.unfused ~nprocs:2 (fig9 30) in
  let small = Native.create (fig9 20) in
  match Native.run_into small sched with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument on undersized buffers"

(* ------------------------------------------------------------------ *)
(* Bit-identity: QCheck property                                       *)

(* Same inventory as test_roundtrip; sizes vary per case. *)
let property_kernels : (string * (int -> Ir.program) * int) array =
  [|
    ("ll18", (fun n -> Lf_kernels.Ll18.program ~n ()), 1);
    ("calc", (fun n -> Lf_kernels.Calc.program ~n ()), 1);
    ( "filter",
      (fun n -> Lf_kernels.Filter.program ~rows:n ~cols:(n / 2 + 8) ()),
      1 );
    ("jacobi", (fun n -> Lf_kernels.Jacobi.program ~n ()), 2);
    ("fig9", (fun n -> fig9 n), 1);
    ( "tomcatv-seq1",
      (fun n ->
        List.hd (Lf_kernels.Apps.tomcatv ~n ()).Lf_kernels.Apps.sequences),
      1 );
  |]

type variant = V_unfused | V_fused | V_wavefront

type ncase = {
  nc_kernel : int;
  nc_n : int;
  nc_procs : int;  (** 1, 2 or 4 *)
  nc_strip : int;  (** deliberately allowed to be non-divisible *)
  nc_variant : variant;
}

let ncase_gen =
  QCheck.Gen.(
    let* nc_kernel = int_bound (Array.length property_kernels - 1) in
    (* odd-ish sizes so strips do not divide ranges and peel boundaries
       land mid-block *)
    let* nc_n = int_range 17 41 in
    let* nc_procs = oneofl [ 1; 2; 4 ] in
    let* nc_strip = int_range 2 13 in
    let* nc_variant = oneofl [ V_unfused; V_fused; V_wavefront ] in
    return { nc_kernel; nc_n; nc_procs; nc_strip; nc_variant })

let ncase_print c =
  let name, _, _ = property_kernels.(c.nc_kernel) in
  Printf.sprintf "%s n=%d P=%d strip=%d %s" name c.nc_n c.nc_procs c.nc_strip
    (match c.nc_variant with
    | V_unfused -> "unfused"
    | V_fused -> "fused"
    | V_wavefront -> "wavefront")

let prop_native_bit_identical c =
  let _, build, depth = property_kernels.(c.nc_kernel) in
  let p = build c.nc_n in
  match
    match c.nc_variant with
    | V_unfused -> Schedule.unfused ~nprocs:c.nc_procs p
    | V_fused ->
      Schedule.fused ~nprocs:c.nc_procs ~strip:c.nc_strip
        ~derive:(Derive.of_program ~depth p)
        p
    | V_wavefront ->
      Wavefront.schedule ~tile:c.nc_strip
        ~derive:(Derive.of_program ~depth p)
        ~nprocs:c.nc_procs p
  with
  | exception Schedule.Illegal _ -> true (* infeasible here: vacuous *)
  | exception Invalid_argument _ -> true
  | exception Derive.Not_applicable _ -> true
  | sched -> (
    match Native.verify sched with
    | Error m -> QCheck.Test.fail_report (ncase_print c ^ ": " ^ m)
    | Ok () ->
      (* the direct checksum repeats the interpreter's sum exactly *)
      let bufs = Native.run sched in
      Float.equal (Native.checksum bufs)
        (Interp.checksum (Native.to_store bufs))
      || QCheck.Test.fail_report (ncase_print c ^ ": checksum differs"))

let native_identity_prop =
  QCheck.Test.make
    ~name:"native execution bit-identical to Interp (kernels x variants x P)"
    ~count:40
    (QCheck.make ~print:ncase_print ncase_gen)
    prop_native_bit_identical

(* ------------------------------------------------------------------ *)
(* Dependences carried by the inner loop                               *)

(* The test names below still say "chunked": they were written for the
   chunked lowering that preceded the compiled nests, which must keep
   point order just the same. *)

(* One nest, outer doall i and inner serial j, run unfused on 1 and 2
   domains.  Every write touches only elements owned by its row i
   (x[i][..], x[..][i] or s[i]), so the doall stays legal, while the
   inner loop carries dependences in both directions. *)
let verify_on_1_and_2 (p : Ir.program) =
  Ir.validate p;
  List.fold_left
    (fun acc procs ->
      Result.bind acc (fun () ->
          Result.map_error (Printf.sprintf "P=%d: %s" procs)
            (Native.verify (Schedule.unfused ~nprocs:procs p))))
    (Ok ()) [ 1; 2 ]

let assert_point_order name p =
  match verify_on_1_and_2 p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

let loop_nest ~ilo ~ihi ~jlo ~jhi body =
  {
    Ir.nid = "carried";
    levels =
      [
        { Ir.lvar = "i"; lo = ilo; hi = ihi; parallel = true };
        { Ir.lvar = "j"; lo = jlo; hi = jhi; parallel = false };
      ];
    body;
  }

let rec expr_gen depth leaf =
  QCheck.Gen.(
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (1, map (fun e -> Ir.Neg e) (expr_gen (depth - 1) leaf));
          ( 4,
            let* op = oneofl [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Div ] in
            let* x = expr_gen (depth - 1) leaf in
            let* y = expr_gen (depth - 1) leaf in
            return (Ir.Bin (op, x, y)) );
        ])

(* Square n x n arrays p, q, t (each walked by rows or by columns), a
   read-only r read both ways, and s[i]; inner offsets in [-3, 3];
   some references pinned to a constant column (they do not move with
   j); some statements guarded. *)
let square_case_gen =
  QCheck.Gen.(
    let* n = int_range 10 40 in
    let* by_col = array_repeat 3 bool in
    let names = [| "p"; "q"; "t" |] in
    let off = int_range (-3) 3 in
    let sub = Ir.av in
    let owned k =
      (* a reference to written array k: it stays in row/column i *)
      let* pinned = frequencyl [ (4, false); (1, true) ] in
      let* o = off and* c = int_bound (n - 1) in
      let inner = if pinned then Ir.ac c else sub ~c:o "j" in
      return
        (Ir.aref names.(k)
           (if by_col.(k) then [ inner; sub "i" ] else [ sub "i"; inner ]))
    in
    let s_ref = Ir.aref "s" [ sub "i" ] in
    let leaf =
      frequency
        [
          (1, map (fun k -> Ir.Const (float_of_int k /. 4.0)) (int_range 1 8));
          (6, map (fun r -> Ir.Read r) (int_bound 2 >>= owned));
          ( 2,
            let* o = off and* oi = off and* flip = bool in
            let a = sub ~c:o "j" and b = sub ~c:oi "i" in
            return (Ir.Read (Ir.aref "r" (if flip then [ a; b ] else [ b; a ]))) );
          (1, return (Ir.Read s_ref));
        ]
    in
    let guard =
      frequency
        [
          (3, return []);
          ( 1,
            let* lo = int_range 0 n and* w = int_bound n in
            let* v = oneofl [ "i"; "j" ] in
            return [ (v, lo, lo + w) ] );
        ]
    in
    let stmt =
      let* lhs =
        frequency [ (6, int_bound 2 >>= owned); (1, return s_ref) ]
      in
      let* rhs = expr_gen 3 leaf and* guard = guard in
      return (Ir.stmt ~guard lhs rhs)
    in
    let* body = list_size (int_range 1 4) stmt in
    let decl a = { Ir.aname = a; extents = [ n; n ] } in
    return
      {
        Ir.pname = "square";
        decls =
          List.map decl [ "p"; "q"; "t"; "r" ]
          @ [ { Ir.aname = "s"; extents = [ n ] } ];
        nests = [ loop_nest ~ilo:3 ~ihi:(n - 4) ~jlo:3 ~jhi:(n - 4) body ];
      })

(* 1-D arrays x, y holding one 800-element segment per row i, read at
   distances of about 256 points on both sides. *)
let segment_case_gen =
  QCheck.Gen.(
    let w = 800 in
    let at a o = Ir.aref a [ Ir.affine ~const:o [ (w, "i"); (1, "j") ] ] in
    let off =
      frequency
        [
          (2, int_range (-3) 3);
          ( 3,
            let* d = int_range 250 262 and* back = bool in
            return (if back then -d else d) );
        ]
    in
    let name = oneofl [ "x"; "y" ] in
    let leaf =
      frequency
        [
          (1, return (Ir.Const 0.5));
          (5, map2 (fun a o -> Ir.Read (at a o)) name off);
        ]
    in
    let stmt =
      let* a = name and* o = int_range (-3) 3 in
      let* rhs = expr_gen 2 leaf in
      return (Ir.stmt (at a o) rhs)
    in
    let* body = list_size (int_range 1 3) stmt in
    return
      {
        Ir.pname = "segments";
        decls =
          [ { Ir.aname = "x"; extents = [ 2 * w ] };
            { Ir.aname = "y"; extents = [ 2 * w ] } ];
        nests = [ loop_nest ~ilo:0 ~ihi:1 ~jlo:270 ~jhi:529 body ];
      })

let chunk_length_prop =
  QCheck.Test.make
    ~name:"chunked lowering keeps point order (carried inner deps, P=1,2)"
    ~count:150
    (QCheck.make ~print:Ir.program_to_string
       QCheck.Gen.(
         frequency [ (3, square_case_gen); (1, segment_case_gen) ]))
    (fun p ->
      match verify_on_1_and_2 p with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

let rows_program name ~cols body =
  {
    Ir.pname = name;
    decls =
      List.map
        (fun a -> { Ir.aname = a; extents = [ 6; cols ] })
        [ "a"; "b" ];
    nests = [ loop_nest ~ilo:0 ~ihi:5 ~jlo:1 ~jhi:(cols - 2) body ];
  }

let test_self_flow_dependence () =
  (* a[i][j] = b[i][j] + 0.5 * a[i][j-1]: each point reads the
     previous point's write, over rows of 700 points *)
  let open Ir.Dsl in
  let p =
    rows_program "scan" ~cols:700
      [
        ("a", [ i0 "i"; i0 "j" ])
        <-: ("b" %. [ i0 "i"; i0 "j" ]) +: (f 0.5 *: ("a" %. [ i0 "i"; i "j" (-1) ]));
      ]
  in
  assert_point_order "self flow dependence" p

let test_cross_statement_backward () =
  (* the first statement reads a[i][j-1], which the second statement
     wrote one point earlier *)
  let open Ir.Dsl in
  let p =
    rows_program "back" ~cols:700
      [
        ("b", [ i0 "i"; i0 "j" ]) <-: ("a" %. [ i0 "i"; i "j" (-1) ]) *: f 0.5;
        ("a", [ i0 "i"; i0 "j" ]) <-: ("b" %. [ i0 "i"; i0 "j" ]) +: f 1.0;
      ]
  in
  assert_point_order "cross-statement backward dependence" p

(* ------------------------------------------------------------------ *)
(* Out-of-range subscripts fail typed                                  *)

let test_out_of_range_typed () =
  (* at j = 1 the read b[i][j-2] is b[i][-1] *)
  let open Ir.Dsl in
  let p =
    rows_program "oob" ~cols:16
      [ ("a", [ i0 "i"; i0 "j" ]) <-: ("b" %. [ i0 "i"; i "j" (-2) ]) +: f 1.0 ]
  in
  let expected = "b dim 1 index -1 not in [0,16)" in
  List.iter
    (fun procs ->
      let sched = Schedule.unfused ~nprocs:procs p in
      (match Native.verify sched with
      | Ok () -> Alcotest.fail "verify accepted an out-of-range read"
      | Error m ->
        check bool
          (Printf.sprintf "P=%d: %S names array, dimension and index" procs m)
          true
          (String.ends_with ~suffix:expected m));
      match Native.run sched with
      | _ -> Alcotest.fail "run accepted an out-of-range read"
      | exception Interp.Out_of_bounds m ->
        Alcotest.(check string) "typed exception" expected m)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Constants, bit for bit                                              *)

(* Every constant reaches the compiled nests as its exact bits, alone
   and combined with a read, on 1 and 2 domains.  Compared with
   Int64.bits_of_float, which, unlike Interp.diff's Float.equal, tells
   0.0 from -0.0 and one NaN from another. *)
let test_exact_constants () =
  let open Ir.Dsl in
  let consts =
    [
      f 0.1; f 1.0 /: f 3.0; f (-0.0); f 5e-324; f max_float; f infinity;
      f neg_infinity; f Float.nan; f 0.1 +: f 0.2; neg (f 0.1);
    ]
  in
  let x = "x" %. [ i0 "i"; i0 "j" ] in
  (* NaN data through a negation and through a multiplication by -1,
     which a C compiler would rewrite as a subtraction and a negation *)
  let nan_data = [ neg (x +: f Float.nan) +: x; (x *: f Float.nan) *: f (-1.0) ] in
  let rhss =
    List.concat_map (fun c -> [ c; x *: c; c -: x; x /: c; neg c +: x ]) consts
    @ nan_data
  in
  let rows = 4 and cols = 9 in
  let body =
    List.mapi
      (fun k rhs ->
        Ir.stmt
          (Ir.aref "o" [ Ir.affine ~const:(k * rows) [ (1, "i") ]; i0 "j" ])
          rhs)
      rhss
  in
  let p =
    {
      Ir.pname = "constants";
      decls =
        [
          { Ir.aname = "x"; extents = [ rows; cols ] };
          { Ir.aname = "o"; extents = [ rows * List.length rhss; cols ] };
        ];
      nests = [ loop_nest ~ilo:0 ~ihi:(rows - 1) ~jlo:0 ~jhi:(cols - 1) body ];
    }
  in
  Ir.validate p;
  let want = Interp.run p in
  List.iter
    (fun procs ->
      let got = Native.to_store (Native.run (Schedule.unfused ~nprocs:procs p)) in
      Hashtbl.iter
        (fun name (a : float array) ->
          let b = Interp.find_array got name in
          Array.iteri
            (fun k v ->
              if Int64.bits_of_float v <> Int64.bits_of_float b.(k) then
                Alcotest.failf "P=%d: %s[%d] = %h (bits %Lx), expected %h (bits %Lx)"
                  procs name k b.(k) (Int64.bits_of_float b.(k)) v
                  (Int64.bits_of_float v))
            a)
        want.Interp.arrays)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Compiled objects: memoised per program; no compiler, typed error    *)

(* Run [f] with PATH naming only an empty directory, so no C compiler
   can start; PATH is restored afterwards. *)
let with_empty_path f =
  let dir = Filename.temp_dir "lf_empty_path" "" in
  let saved = Sys.getenv_opt "PATH" in
  Unix.putenv "PATH" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PATH" (Option.value saved ~default:"");
      Sys.rmdir dir)
    f

let test_memo_without_compiler () =
  (* constants no other test uses, so both programs are new here *)
  let scaled k =
    let open Ir.Dsl in
    rows_program "memo" ~cols:8
      [ ("a", [ i0 "i"; i0 "j" ]) <-: ("b" %. [ i0 "i"; i0 "j" ]) *: f k ]
  in
  let seen = scaled 0.70710678 and fresh = scaled 0.70710679 in
  ignore (Native.create seen);
  with_empty_path (fun () ->
      (* the same program: loaded from the memo, no compiler runs *)
      assert_identical "memoised program" (Schedule.unfused ~nprocs:2 seen);
      (match Native.create fresh with
      | _ -> Alcotest.fail "a new program compiled without a C compiler"
      | exception Native.Compile_failed m ->
        check bool
          (Printf.sprintf "%S names the compiler" m)
          true
          (String.starts_with
             ~prefix:("C compiler " ^ Lf_native.Cc_config.compiler ^ " failed: ")
             m));
      match Native.verify (Schedule.unfused ~nprocs:2 fresh) with
      | Ok () -> Alcotest.fail "verify ran a program it could not compile"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Measured cost tier + Wallclock search                               *)

let fast_policy = { Bench_timer.warmup = 0; repetitions = 1; outlier_cutoff = 3.0 }

let ll18 () = Lf_kernels.Ll18.program ~n:32 ()

let test_measured_tier () =
  let p = ll18 () in
  let machine = Machine.convex in
  let cand = Space.paper_default ~machine p in
  let cache = Cost.create_mcache () in
  let m =
    match
      Cost.measured ~policy:fast_policy ~cache ~machine ~nprocs:2 p cand
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "measured tier failed: %s" e
  in
  check int "one timed rep" 1 m.Cost.m_reps;
  check bool "positive time" true (m.Cost.m_min_s > 0.0);
  let s1 = Cost.mstats cache in
  check int "one cold measurement" 1 s1.Cost.misses;
  (* repeat: memo hit, no re-measure *)
  ignore
    (Cost.measured ~policy:fast_policy ~cache ~machine ~nprocs:2 p cand);
  let s2 = Cost.mstats cache in
  check int "second call hits" 1 s2.Cost.hits;
  check int "still one measurement" 1 s2.Cost.misses

let test_measured_layout_normalised () =
  (* layout does not exist natively: candidates differing only on the
     layout axis share one measurement *)
  let p = ll18 () in
  let machine = Machine.convex in
  let cand = Space.paper_default ~machine p in
  let cache = Cost.create_mcache () in
  let run c =
    ignore (Cost.measured ~policy:fast_policy ~cache ~machine ~nprocs:2 p c)
  in
  run cand;
  run { cand with Space.layout = Space.Contiguous };
  run { cand with Space.layout = Space.Padded 8 };
  let s = Cost.mstats cache in
  check int "one measurement for three layouts" 1 s.Cost.misses;
  check int "two memo hits" 2 s.Cost.hits

let test_wallclock_search_never_loses () =
  let p = ll18 () in
  let o =
    match
      Search.run ~driver:(Search.Beam { width = 3; budget = 8 })
        ~objective:Search.Wallclock ~policy:fast_policy
        ~machine:Machine.convex ~nprocs:2 p
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "wallclock search failed: %s" e
  in
  check bool "outcome tagged with its objective" true
    (o.Search.objective = Search.Wallclock);
  check bool "measured best <= measured default" true
    (o.Search.best_cost.Cost.e_cycles
    <= o.Search.default_cost.Cost.e_cycles);
  check bool "seconds, not cycles" true
    (o.Search.best_cost.Cost.e_cycles < 10.0);
  check int "no miss count under wallclock" 0
    o.Search.best_cost.Cost.e_misses

let test_cycles_outcome_tagged () =
  let p = ll18 () in
  let o =
    match
      Search.run ~driver:(Search.Beam { width = 2; budget = 4 })
        ~machine:Machine.convex ~nprocs:2 p
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "cycles search failed: %s" e
  in
  check bool "default objective is Cycles" true
    (o.Search.objective = Search.Cycles)

let suite =
  [
    Alcotest.test_case "aggregate: min of k" `Quick test_aggregate_min_of_k;
    Alcotest.test_case "aggregate: outlier rejection" `Quick
      test_aggregate_outlier_rejection;
    Alcotest.test_case "aggregate: even-length median" `Quick
      test_aggregate_even_median;
    Alcotest.test_case "aggregate: cutoff uses the raw median" `Quick
      test_aggregate_cutoff_from_raw_median;
    Alcotest.test_case "aggregate: malformed inputs refused" `Quick
      test_aggregate_rejects_malformed;
    Alcotest.test_case "measure: warmup/rep accounting" `Quick
      test_measure_counts_reps;
    Alcotest.test_case "native fig9 on 2 domains" `Quick
      test_native_fig9_two_domains;
    Alcotest.test_case "native heat2d on 2 domains" `Quick
      test_native_heat2d_two_domains;
    Alcotest.test_case "native jacobi 2x2 grid" `Quick test_native_jacobi_grid;
    Alcotest.test_case "native multi-step checksum" `Quick
      test_native_steps_match_interp;
    Alcotest.test_case "pool size mismatch refused" `Quick
      test_native_pool_size_mismatch;
    Alcotest.test_case "undersized buffers refused" `Quick
      test_native_buffer_size_mismatch;
    QCheck_alcotest.to_alcotest native_identity_prop;
    QCheck_alcotest.to_alcotest chunk_length_prop;
    Alcotest.test_case "chunked: self flow dependence" `Quick
      test_self_flow_dependence;
    Alcotest.test_case "chunked: cross-statement backward dependence" `Quick
      test_cross_statement_backward;
    Alcotest.test_case "out-of-range subscript fails typed" `Quick
      test_out_of_range_typed;
    Alcotest.test_case "constants keep their exact bits" `Quick
      test_exact_constants;
    Alcotest.test_case "compiled objects memoised; no compiler fails typed"
      `Quick test_memo_without_compiler;
    Alcotest.test_case "measured tier: verify, time, memoise" `Quick
      test_measured_tier;
    Alcotest.test_case "measured tier: layout axis is free" `Quick
      test_measured_layout_normalised;
    Alcotest.test_case "wallclock search never loses to the default" `Quick
      test_wallclock_search_never_loses;
    Alcotest.test_case "cycles outcome carries its objective" `Quick
      test_cycles_outcome_tagged;
  ]
