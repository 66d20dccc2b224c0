(* Two-tier cost model (see cost.mli). *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Cache = Lf_cache.Cache
module Schedule = Lf_core.Schedule
module Exec = Lf_machine.Exec
module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts

type exact = { e_cycles : float; e_misses : int; e_barrier : float }

type cache = {
  tbl : (string, exact) Hashtbl.t;
  mutable c_hits : int;
  mutable c_misses : int;
}

let create_cache () = { tbl = Hashtbl.create 64; c_hits = 0; c_misses = 0 }

type cache_stats = { hits : int; misses : int; entries : int }

let stats c =
  { hits = c.c_hits; misses = c.c_misses; entries = Hashtbl.length c.tbl }

let fingerprint ?(depth = 1) ?(steps = 1) ~machine ~nprocs p cand =
  let m : Machine.config = machine in
  let cc = m.Machine.cache in
  Printf.sprintf "%s|%s|%s|c%d.%d.%d|h%d|P%d|s%d|d%d"
    (Digest.to_hex (Digest.string (Ir.program_to_string p)))
    (Space.to_string cand) m.Machine.mname cc.Cache.capacity cc.Cache.line
    cc.Cache.assoc m.Machine.hypernode nprocs steps depth

(* ------------------------------------------------------------------ *)
(* Analytic tier                                                       *)

(* Measured miss-inflation factors (misses over compulsory misses)
   keyed by layout tag, recorded from an instrumented simulation. *)
type calibration = (string * float) list

let calibration_of_sink sink =
  [ (Lf_obs.Obs.layout sink, Lf_obs.Obs.miss_factor sink) ]

(* Layouts prone to cross-conflicts pay a multiplicative miss factor.
   A [calibration] entry for the candidate's layout tag — a factor
   *measured* by Lf_obs on this very workload — replaces the guess;
   otherwise the heuristic applies: back-to-back power-of-two arrays
   conflict pathologically on a direct-mapped cache (paper Figure 18's
   motivation), padding perturbs but does not eliminate conflicts, and
   partitioning with naive direct-mapped targets wastes set-associative
   span. *)
let conflict_factor ?(calibration = []) ~machine (cand : Space.candidate) =
  match List.assoc_opt (Space.layout_to_string cand.Space.layout) calibration with
  | Some f -> f
  | None -> (
    let assoc = machine.Machine.cache.Cache.assoc in
    match cand.Space.layout with
    | Space.Partitioned { assoc_aware = true } -> 1.0
    | Space.Partitioned { assoc_aware = false } ->
      if assoc > 1 then 1.15 else 1.0
    | Space.Padded pad -> if pad > 0 then 1.3 else 2.5
    | Space.Contiguous -> if assoc = 1 then 3.0 else 2.0)

let analytic_of_schedule ?calibration ~machine cand (sched : Schedule.t) =
  let m : Machine.config = machine in
  let c = m.Machine.cost in
  let prog = sched.Schedule.prog in
  let nprocs = sched.Schedule.nprocs in
  let fprocs = float_of_int nprocs in
  let nests = Array.of_list prog.Ir.nests in
  (* per-nest: statement count, memory references per iteration *)
  let nstmts = Array.map (fun (n : Ir.nest) -> List.length n.Ir.body) nests in
  let refs =
    Array.map
      (fun (n : Ir.nest) ->
        List.fold_left
          (fun acc (s : Ir.stmt) -> acc + 1 + List.length (Ir.stmt_reads s))
          0 n.Ir.body)
      nests
  in
  let arrays_of_nest = Array.map Ir.nest_arrays nests in
  let bytes_of_array =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (d : Ir.decl) -> Hashtbl.replace tbl d.Ir.aname (8 * Ir.num_elements d))
      prog.Ir.decls;
    fun a -> try Hashtbl.find tbl a with Not_found -> 0
  in
  let line = float_of_int m.Machine.cache.Cache.line in
  let capacity = m.Machine.cache.Cache.capacity in
  let compute = ref 0.0 and cap_misses = ref 0.0 in
  List.iter
    (fun (ph : Schedule.phase) ->
      let per_proc =
        Array.map
          (fun boxes ->
            List.fold_left
              (fun acc (b : Schedule.box) ->
                let iters = float_of_int (Schedule.box_iterations b) in
                let k = b.Schedule.nest in
                acc +. c.Machine.loop_overhead
                +. iters
                   *. ((c.Machine.op *. float_of_int nstmts.(k))
                      +. c.Machine.iter_overhead
                      +. (float_of_int refs.(k) *. c.Machine.hit)))
              0.0 boxes)
          ph
      in
      compute := !compute +. Array.fold_left Float.max 0.0 per_proc;
      (* arrays touched by this phase; one sweep of them when the
         per-processor share exceeds the cache (Profit's criterion) *)
      let touched = Hashtbl.create 8 in
      Array.iter
        (List.iter (fun (b : Schedule.box) ->
             if not (Schedule.box_is_empty b) then
               List.iter
                 (fun a -> Hashtbl.replace touched a ())
                 arrays_of_nest.(b.Schedule.nest)))
        ph;
      let phase_bytes =
        Hashtbl.fold (fun a () acc -> acc + bytes_of_array a) touched 0
      in
      if phase_bytes / nprocs > capacity then
        cap_misses := !cap_misses +. (float_of_int phase_bytes /. line))
    sched.Schedule.phases;
  let data_bytes =
    List.fold_left
      (fun acc a -> acc + bytes_of_array a)
      0 (Ir.program_arrays prog)
  in
  let cold = float_of_int data_bytes /. line in
  let misses =
    (cold +. !cap_misses) *. conflict_factor ?calibration ~machine cand
  in
  let miss_extra = Machine.miss_penalty m ~nprocs -. c.Machine.hit in
  let nbarriers = max 0 (List.length sched.Schedule.phases - 1) in
  !compute
  +. (misses *. miss_extra /. fprocs)
  +. (float_of_int nbarriers *. Machine.barrier_cost m ~nprocs)

let analytic ?depth ?calibration ~machine ~nprocs p cand =
  match Space.build ?depth ~machine ~nprocs p cand with
  | Error _ as e -> e
  | Ok (sched, _layout) ->
    Ok (analytic_of_schedule ?calibration ~machine cand sched)

(* ------------------------------------------------------------------ *)
(* Exact tier                                                          *)

let exact ?depth ?steps ?cache ?(opts = Run_opts.(without_store default))
    ~machine ~nprocs p cand =
  let eval () =
    match Space.build ?depth ~machine ~nprocs p cand with
    | Error _ as e -> e
    | Ok (sched, layout) ->
      (* the tuner only reads cycles/misses/barrier, never the store,
         so the run-compressed address-stream engine is
         semantics-preserving here.  Routing through the batch layer
         makes every exact evaluation a content-addressed request:
         under a store policy, evaluations persist across processes. *)
      let req =
        Lf_machine.Sim.of_schedule ~layout ?steps
          ~mode:Lf_machine.Sim.Run_compressed ~machine sched
      in
      let r = Batch.run_one_with opts req in
      Ok
        {
          e_cycles = r.Exec.cycles;
          e_misses = r.Exec.total_misses;
          e_barrier = r.Exec.barrier_cycles;
        }
  in
  match cache with
  | None -> eval ()
  | Some c -> (
    let key = fingerprint ?depth ?steps ~machine ~nprocs p cand in
    match Hashtbl.find_opt c.tbl key with
    | Some e ->
      c.c_hits <- c.c_hits + 1;
      Ok e
    | None -> (
      c.c_misses <- c.c_misses + 1;
      match eval () with
      | Ok e as ok ->
        Hashtbl.add c.tbl key e;
        ok
      | Error _ as err -> err))

(* ------------------------------------------------------------------ *)
(* Measured tier                                                       *)

module Native = Lf_native.Native
module Bench_timer = Lf_native.Bench_timer

type measured = {
  m_min_s : float;
  m_median_s : float;
  m_reps : int;
  m_kept : int;
}

(* In-memory only, by design: measured wall-clock is host- and
   moment-dependent, so it must never reach the content-addressed
   on-disk store (DESIGN §7/§11) — hence no [?opts] anywhere below,
   and nothing here knows how to serialise a [measured]. *)
type mcache = {
  mtbl : (string, measured) Hashtbl.t;
  mutable m_hits : int;
  mutable m_misses : int;
}

let create_mcache () = { mtbl = Hashtbl.create 16; m_hits = 0; m_misses = 0 }

let mstats c =
  { hits = c.m_hits; misses = c.m_misses; entries = Hashtbl.length c.mtbl }

(* Layout placement is a property of the *simulated* memory system; a
   native run puts every array in its own Bigarray regardless.  The
   memo key therefore pins the layout to a fixed tag so candidates
   differing only on the layout axis share one measurement.  The
   policy *is* in the key: min-of-3 and min-of-10 are different
   observables. *)
let mfingerprint ?depth ?steps ~policy ~machine ~nprocs p cand =
  let canonical = { cand with Space.layout = Space.Contiguous } in
  Printf.sprintf "%s|native|w%d.r%d.x%h"
    (fingerprint ?depth ?steps ~machine ~nprocs p canonical)
    policy.Bench_timer.warmup policy.Bench_timer.repetitions
    policy.Bench_timer.outlier_cutoff

let measured ?depth ?steps ?(policy = Bench_timer.default_policy) ?cache ?pool
    ~machine ~nprocs p cand =
  let eval () =
    match Space.build ?depth ~machine ~nprocs p cand with
    | Error _ as e -> e
    | Ok (sched, _layout) -> (
      (* Never time what is not proven correct: one verified run
         against the serial interpreter, bit for bit, before the
         clock starts. *)
      match Native.verify ?steps ?pool sched with
      | Error m ->
        Error ("native run diverges from the reference interpreter: " ^ m)
      | Ok () ->
        let t = Native.measure ~policy ?steps ?pool sched in
        let m = t.Native.t_measure in
        Ok
          {
            m_min_s = m.Bench_timer.min_s;
            m_median_s = m.Bench_timer.median_s;
            m_reps = Array.length m.Bench_timer.samples;
            m_kept = m.Bench_timer.kept;
          })
  in
  match cache with
  | None -> eval ()
  | Some c -> (
    let key = mfingerprint ?depth ?steps ~policy ~machine ~nprocs p cand in
    match Hashtbl.find_opt c.mtbl key with
    | Some m ->
      c.m_hits <- c.m_hits + 1;
      Ok m
    | None -> (
      c.m_misses <- c.m_misses + 1;
      match eval () with
      | Ok m as ok ->
        Hashtbl.add c.mtbl key m;
        ok
      | Error _ as err -> err))
