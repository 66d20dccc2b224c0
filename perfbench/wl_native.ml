(* Workload `native`: the paper's three kernels (LL18, calc, filter)
   executed natively on 2 domains through Native.run_into, fused
   shift-and-peel at the §3.4 strip and unfused, at two sizes:

   - membound: each kernel's total array footprint >= 2x the host L3,
     so the arrays stream from memory on every run (the paper's regime);
   - incache: each footprint <= half of one core's L2, so only
     dispatch and barrier cost remain.

   Set-up (timed; see [passes]) prints the kernel as .loop text and
   re-parses it, runs dependence analysis, derivation and scheduling
   and allocates the buffers.  At incache size it also proves every
   schedule bit-identical to the reference interpreter, array by
   array.  At membound size one interpreter run costs tens of seconds,
   so the interpreter's checksum for that exact (kernel, n, input)
   comes from Expected.native, recorded offline by `--workload
   record-expected`; the interpreter runs in set-up only when the table
   lacks the entry.  Every timed repetition's Native.checksum must
   equal that reference.

   Membound kernels are set up, measured and freed one at a time, so
   at most one kernel's large arrays are live; rounds over all incache
   kernels run between the membound rounds. *)

open Common
module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Parse = Lf_front.Parse
module Dep = Lf_dep.Dep
module Derive = Lf_core.Derive
module Schedule = Lf_core.Schedule
module Native = Lf_native.Native
module Pool = Lf_parallel.Pool
module Machine = Lf_machine.Machine
module Sim = Lf_machine.Sim
module Sweep = Lf_queue.Sweep

let domains = 2

(* Set-ups per kernel and size; the median is kept.  A membound set-up
   is dominated by allocating and filling ~2 x L3 of arrays, so it is
   done once: three would add ~9 s to every run. *)
let passes size = if size = "membound" then 1 else 3

(* Timed repetitions per membound kernel and variant; the median is
   kept.  Each one also pays an untimed refill and checksum of ~2 x L3
   of arrays. *)
let membound_rounds = 5

(* The strip is §3.4's, sized for the simulated Convex cache that
   BENCH_7 also used; the host's own caches set only the array sizes. *)
let strip_machine = Machine.convex

let kernels : (string * (int -> Ir.program)) list =
  [
    ("ll18", fun n -> Lf_kernels.Ll18.program ~n ());
    ("calc", fun n -> Lf_kernels.Calc.program ~n ());
    ("filter", fun n -> Lf_kernels.Filter.program ~rows:n ~cols:n ());
  ]

let variants = [ "fused"; "unfused" ]
let sizes = [ "membound"; "incache" ]

(* Inputs: a shifted window of the reference initialiser, one of a few
   recorded offsets chosen by the seed (same distribution of values,
   different inputs). *)
let offsets = [| 0; 1_000_003; 2_000_029; 3_000_017 |]
let offset_of_seed seed = offsets.(abs seed mod Array.length offsets)
let init_of offset name k = Interp.default_init name (k + offset)

let footprint (p : Ir.program) =
  List.fold_left (fun acc d -> acc + (8 * Ir.num_elements d)) 0 p.Ir.decls

(* Smallest n whose footprint reaches [target] (membound) or largest n
   whose footprint stays within it (incache). *)
let size_for make ~at_least target =
  let fp n = footprint (make n) in
  let narrays = List.length (make 16).Ir.decls in
  let guess =
    max 16
      (int_of_float (sqrt (float_of_int target /. float_of_int (8 * narrays))))
  in
  let n = ref guess in
  if at_least then begin
    while fp !n < target do incr n done;
    while !n > 16 && fp (!n - 1) >= target do decr n done
  end
  else begin
    while !n > 16 && fp !n > target do decr n done;
    while fp (!n + 1) <= target do incr n done
  end;
  !n

(* Bytes the schedule is computed to move per run: unfused, every nest
   streams each distinct array it names; fused, the one fused nest
   streams their union once.  From array sizes, not measured. *)
let mb_computed (p : Ir.program) variant =
  let bytes names =
    List.fold_left
      (fun acc a -> acc + (8 * Ir.num_elements (Ir.find_decl p a)))
      0 names
  in
  let b =
    if variant = "fused" then bytes (Ir.program_arrays p)
    else
      List.fold_left (fun acc n -> acc + bytes (Ir.nest_arrays n)) 0 p.Ir.nests
  in
  float_of_int b /. 1e6

(* Set-up layers, in pipeline order. *)
let layers =
  [ "front.parse"; "dep.build"; "core.derive"; "core.schedule";
    "native.create"; "ir.interp_verify" ]

(* The initial values of every array of [p], computed once: a refill
   from them costs a load per element where the seeded initialiser
   costs a hash.  Native.reset and Native.create call the initialiser
   array by array with the declaration's name, so the last array found
   is kept. *)
let init_table init (p : Ir.program) =
  let tables =
    List.map
      (fun (d : Ir.decl) ->
        (d.Ir.aname, Float.Array.init (Ir.num_elements d) (init d.Ir.aname)))
      p.Ir.decls
  in
  let last = ref (List.hd tables) in
  fun name k ->
    if not (String.equal (fst !last) name) then
      last := (name, List.assoc name tables);
    Float.Array.get (snd !last) k

type prepared = {
  prog : Ir.program;
  init : string -> int -> float;  (* the seeded initialiser, tabulated *)
  sched : (string * Schedule.t) list;  (* variant -> schedule *)
  derive : Derive.t;
  strip : int;
  bufs : Native.buffers;
  expect : float;  (* the interpreter's checksum for these inputs *)
  reference : string;  (* where [expect] came from *)
  bad : string list;  (* verification failures *)
}

(* One set-up of one kernel at one size; returns the per-layer times. *)
let prepare ~pool ~init ~offset ~size kernel make n =
  let t = Hashtbl.create 8 in
  let timed layer f =
    let r, dt = Span.timed layer f in
    Hashtbl.replace t layer
      (dt +. Option.value (Hashtbl.find_opt t layer) ~default:0.0);
    r
  in
  let text = Ir.program_to_string (make n) in
  let prog = timed "front.parse" (fun () -> Parse.program text) in
  let g = timed "dep.build" (fun () -> Dep.build ~depth:1 prog) in
  let derive = timed "core.derive" (fun () -> Derive.of_multigraph g) in
  let strip = Sweep.strip_for strip_machine prog in
  let sched =
    timed "core.schedule" (fun () ->
        [
          ("fused", Schedule.fused ~nprocs:domains ~strip ~derive prog);
          ("unfused", Schedule.unfused ~nprocs:domains prog);
        ])
  in
  let init, bufs =
    timed "native.create" (fun () ->
        let init = init_table init prog in
        (init, Native.create ~init prog))
  in
  let expect, reference, bad =
    timed "ir.interp_verify" (fun () ->
        let recorded =
          if size = "membound" then Expected.native kernel n offset else None
        in
        match recorded with
        | Some c -> (c, "recorded interpreter checksum", [])
        | None ->
          let reference = Interp.run ~init prog in
          let bad =
            if size = "membound" then []
            else
              List.filter_map
                (fun (v, s) ->
                  Native.reset ~init bufs;
                  Native.run_into ~pool bufs s;
                  match Interp.diff reference (Native.to_store bufs) with
                  | None -> None
                  | Some (a, k, want, got) ->
                    Some
                      (Printf.sprintf "%s %s %s: %s[%d] = %h, expected %h"
                         size kernel v a k got want))
                sched
          in
          ( Interp.checksum reference,
            (if size = "membound" then "interpreter run in set-up"
             else "interpreter, every array compared"),
            bad ))
  in
  ({ prog; init; sched; derive; strip; bufs; expect; reference; bad }, t)

type samples = {
  mutable all : float list;
  mutable traced : float list;
  mutable untraced : float list;
}

let new_samples () = { all = []; traced = []; untraced = [] }
let med l = median (Array.of_list l)

(* One timed repetition: a full major collection, then the reset, so
   in-cache arrays start hot (both untimed); the run (timed; includes
   Native.run_into's per-call nest compile); then the checksum gate.
   With tracing on, each series alternates traced and untraced
   repetitions, so the two can be compared on the same work. *)
let rep ~pool ~label pr sched s =
  ignore (Span.time "native.gc" Gc.full_major);
  ignore (Span.time "native.reset" (fun () -> Native.reset ~init:pr.init pr.bufs));
  let trace_this = List.length s.all mod 2 = 0 in
  let tracing = !Span.enabled in
  Span.enabled := tracing && trace_this;
  let dt =
    Span.time ("native.run_into." ^ label) (fun () ->
        Native.run_into ~pool pr.bufs sched)
  in
  Span.enabled := tracing;
  s.all <- dt :: s.all;
  if tracing then
    if trace_this then s.traced <- dt :: s.traced
    else s.untraced <- dt :: s.untraced;
  Float.equal
    (fst (Span.timed "native.checksum" (fun () -> Native.checksum pr.bufs)))
    pr.expect

(* The incache kernels as Convex Run_compressed requests, fused and
   unfused on [domains] processors: the inputs of the layer probes. *)
let probe_requests prepared =
  List.concat_map
    (fun (_, pr) ->
      [
        Sim.fused ~strip:pr.strip ~derive:pr.derive ~mode:Sim.Run_compressed
          ~machine:strip_machine ~nprocs:domains pr.prog;
        Sim.unfused ~mode:Sim.Run_compressed ~machine:strip_machine
          ~nprocs:domains pr.prog;
      ])
    prepared

let run (o : opts) : outcome =
  let caches = host_caches () in
  let st = rng o.seed 1 in
  let offset = offset_of_seed o.seed in
  let init = init_of offset in
  let order = Array.to_list (shuffle st (Array.of_list variants)) in
  let gc0 = Gc.quick_stat () in
  let attempted = ref 0 and failures = ref [] in
  let fail msg = failures := msg :: !failures in
  (* layer -> set-up seconds summed over kernels and sizes *)
  let setup = Hashtbl.create 8 in
  (* (size, kernel, variant) -> timed repetitions *)
  let results = Hashtbl.create 32 in
  let iters = Hashtbl.create 32 and mb = Hashtbl.create 32 in
  let p1 = Hashtbl.create 4 in
  let sizes_report = ref [] in
  let pool = Pool.create domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let set_up size (kernel, make) =
    let target, at_least =
      if size = "membound" then (membound_target o caches, true)
      else (incache_target caches, false)
    in
    let n = size_for make ~at_least target in
    (* only the last set-up's buffers are kept; the collection before
       each one frees the previous one's *)
    let last = ref None in
    let runs =
      List.init (passes size) (fun i ->
          Gc.full_major ();
          let p, t = prepare ~pool ~init ~offset ~size kernel make n in
          attempted := !attempted + List.length p.sched;
          List.iter fail p.bad;
          if i = passes size - 1 then last := Some p;
          t)
    in
    let pr = Option.get !last in
    List.iter
      (fun layer ->
        let m =
          med
            (List.map
               (fun t -> Option.value (Hashtbl.find_opt t layer) ~default:0.0)
               runs)
        in
        Hashtbl.replace setup layer
          (m +. Option.value (Hashtbl.find_opt setup layer) ~default:0.0))
      layers;
    sizes_report :=
      ( Printf.sprintf "%s.%s" size kernel,
        Obj
          [
            ("n", Int n);
            ("footprint_bytes", Int (footprint pr.prog));
            ("target_bytes", Int target);
            ("rule", Str (if at_least then ">= 2 x L3" else "<= L2 / 2"));
            ("strip", Int pr.strip);
            ("reference", Str pr.reference);
          ] )
      :: !sizes_report;
    List.iter
      (fun (v, s) ->
        Hashtbl.replace iters (size, kernel, v) (Schedule.total_iterations s);
        Hashtbl.replace mb (size, kernel, v) (mb_computed pr.prog v);
        Hashtbl.replace results (size, kernel, v) (new_samples ()))
      pr.sched;
    (kernel, pr)
  in
  (* One round: one repetition of every given kernel and variant. *)
  let round size prs =
    List.iter
      (fun (kernel, pr) ->
        List.iter
          (fun v ->
            incr attempted;
            let label = Printf.sprintf "%s.%s.%s" size kernel v in
            if
              not
                (rep ~pool ~label pr (List.assoc v pr.sched)
                   (Hashtbl.find results (size, kernel, v)))
            then fail (label ^ ": checksum differs from the reference"))
          order)
      prs
  in
  (* The host's speed swings by tens of percent within seconds, so the
     incache rounds are spread over the whole run, between the membound
     rounds, instead of filling one window of their own. *)
  let start = Span.now_ns () in
  let incache = List.map (set_up "incache") kernels in
  (* membound: one kernel's arrays live at a time *)
  List.iter
    (fun k ->
      let kernel, pr = set_up "membound" k in
      for _ = 1 to membound_rounds do
        round "membound" [ (kernel, pr) ];
        for _ = 1 to 3 do round "incache" incache done
      done;
      (* the single-domain baseline of the fused run *)
      if o.trace then begin
        let s1 =
          Schedule.fused ~nprocs:1 ~strip:pr.strip ~derive:pr.derive pr.prog
        in
        Pool.with_pool 1 (fun pool1 ->
            let s = new_samples () in
            let label = Printf.sprintf "membound.%s.fused_p1" kernel in
            incr attempted;
            if not (rep ~pool:pool1 ~label pr s1 s) then
              fail (label ^ ": checksum differs from the reference");
            Hashtbl.replace p1 kernel (med s.all))
      end)
    kernels;
  (* at least [--seconds] of measuring: more incache rounds if needed *)
  let deadline = Int64.add start (Int64.of_float (o.seconds *. 1e9)) in
  while not (Span.past deadline) do round "incache" incache done;
  let gc = gc_metrics gc0 in
  let kmed size k v = med (Hashtbl.find results (size, k, v)).all in
  let over_kernels f = geomean (List.map (fun (k, _) -> f k) kernels) in
  let configs =
    List.concat_map
      (fun size ->
        List.concat_map
          (fun (k, _) -> List.map (fun v -> (size, k, v)) variants)
          kernels)
      sizes
  in
  let setup_metric layer =
    Option.value (Hashtbl.find_opt setup layer) ~default:0.0
  in
  let metrics =
    if not o.trace then begin
      [
        ("setup_s", List.fold_left (fun a l -> a +. setup_metric l) 0.0 layers, "s");
        ("peak_rss_mb", float_of_int (vm_hwm_kib "self") /. 1024.0, "MiB");
        ( "op_ms",
          1e3 *. geomean (List.map (fun (size, k, v) -> kmed size k v) configs),
          "ms" );
        (* loop iterations per second, so each size weighs the same *)
        ( "ops_per_s",
          geomean
            (List.map
               (fun (size, k, v) ->
                 float_of_int (Hashtbl.find iters (size, k, v)) /. kmed size k v)
               configs),
          "1/s" );
      ]
    end
    else begin
      (* traced / untraced over the same interleaved repetitions *)
      let ratio (size, k, v) =
        let s = Hashtbl.find results (size, k, v) in
        med s.traced /. med s.untraced
      in
      Probe.run ~pool o (probe_requests incache)
      @ gc
      @ [ ("trace.overhead_frac", geomean (List.map ratio configs) -. 1.0, "frac") ]
    end
  in
  let size_variant =
    List.concat_map
      (fun size ->
        List.map
          (fun v ->
            ( Printf.sprintf "%s_%s_s" size v,
              over_kernels (fun k -> kmed size k v),
              "s" ))
          variants)
      sizes
  in
  let detail =
    if not o.trace then size_variant
    else begin
      let per_kernel =
        List.concat_map
          (fun size ->
            List.concat_map
              (fun (k, _) ->
                List.map
                  (fun v ->
                    (Printf.sprintf "native.%s.%s.%s_s" size k v,
                     kmed size k v, "s"))
                  variants
                @ [
                    ( Printf.sprintf "native.%s.%s.speedup" size k,
                      kmed size k "unfused" /. kmed size k "fused",
                      "x" );
                  ]
                @ List.map
                    (fun v ->
                      ( Printf.sprintf "native.%s.%s.%s.mb_computed" size k v,
                        Hashtbl.find mb (size, k, v),
                        "MB" ))
                    variants)
              kernels)
          sizes
      in
      let ns_per_iter =
        List.concat_map
          (fun size ->
            List.map
              (fun v ->
                ( Printf.sprintf "native.%s.%s.ns_per_iter" size v,
                  over_kernels (fun k ->
                      kmed size k v *. 1e9
                      /. float_of_int (Hashtbl.find iters (size, k, v))),
                  "ns" ))
              variants)
          sizes
      in
      let p1_metrics =
        List.map
          (fun (k, _) ->
            (Printf.sprintf "native.membound.%s.fused_p1_s" k,
             Hashtbl.find p1 k, "s"))
          kernels
      in
      size_variant
      @ List.map (fun l -> (l ^ "_s", setup_metric l, "s")) layers
      @ per_kernel @ ns_per_iter @ p1_metrics
    end
  in
  {
    attempted = !attempted;
    failed = List.length !failures;
    metrics;
    detail;
    report =
      host_report o caches
      @ [
          ("domains", Int domains);
          ("setup_passes", Obj (List.map (fun z -> (z, Int (passes z))) sizes));
          ("strip_machine", Str strip_machine.Machine.mname);
          ("init_offset", Int offset);
          ("variant_order", List (List.map (fun v -> Str v) order));
          ("sizes", Obj (List.rev !sizes_report));
          ( "samples",
            Obj
              (Hashtbl.fold
                 (fun (size, k, v) s acc ->
                   (Printf.sprintf "%s.%s.%s" size k v, Int (List.length s.all))
                   :: acc)
                 results []
              |> List.sort compare) );
          ( "policy",
            Str
              "per repetition: reset + Gc.full_major untimed, run_into timed \
               (includes the per-call nest compile), checksum gate; per \
               kernel the median; per metric the geomean over kernels" );
          ("failures", List (List.map (fun s -> Str s) !failures));
        ];
  }

(* Offline: the interpreter's checksums for every membound kernel at
   this host's sizes and every recorded input offset, printed as
   entries for Expected.native. *)
let record_expected (o : opts) =
  let caches = host_caches () in
  List.iter
    (fun (kernel, make) ->
      let n = size_for make ~at_least:true (membound_target o caches) in
      Array.iter
        (fun offset ->
          let c = Interp.checksum (Interp.run ~init:(init_of offset) (make n)) in
          Printf.printf "    ((%S, %d, %d), %h);\n%!" kernel n offset c;
          Gc.full_major ())
        offsets)
    kernels
