(* Small helpers shared by the test suites. *)

module Ir = Lf_ir.Ir
module Schedule = Lf_core.Schedule
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Machine = Lf_machine.Machine
module Partition = Lf_core.Partition
module Cache = Lf_cache.Cache
module Obs = Lf_obs.Obs

(* Reproducible QCheck runs: an explicit seed, overridable with
   LF_QCHECK_SEED, so CI failures replay deterministically. *)
let qcheck_seed =
  match Sys.getenv_opt "LF_QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg ("bad LF_QCHECK_SEED: " ^ s))
  | None -> 0x5eed

(* QCheck-to-alcotest bridge seeded with [qcheck_seed].  The seed is
   printed up front so a failure report always carries it. *)
let to_alcotest cell =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    ~verbose:false cell

let () =
  Printf.eprintf
    "[qcheck] seed %d (set LF_QCHECK_SEED to override and replay)\n%!"
    qcheck_seed

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* [with_temp_dir f] runs [f dir] on a fresh empty directory in the
   temp directory, then removes the directory and everything under it,
   whether [f] returns or raises.  Tests that need several stores or
   queues make them inside [dir]. *)
let with_temp_dir f =
  let rec rm_rf path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let dir = Filename.temp_dir "lf_test_" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A 1-D stencil chain program: nest k writes array [a_k] reading
   [a_(k-1)] at the given offsets; array a0 is an input.  All nests are
   parallel over [lo, hi]. *)
let chain_program ?(name = "chain") ~lo ~hi offsets_per_nest =
  let n = hi + 4 in
  (* room for stencil halo *)
  let arrays = List.init (List.length offsets_per_nest + 1) (fun k ->
      Printf.sprintf "a%d" k)
  in
  let i o = Ir.av ~c:o "i" in
  let nests =
    List.mapi
      (fun k offsets ->
        let src = Printf.sprintf "a%d" k in
        let dst = Printf.sprintf "a%d" (k + 1) in
        let reads = List.map (fun o -> Ir.Read (Ir.aref src [ i o ])) offsets in
        let rhs =
          match reads with
          | [] -> Ir.Const 0.0
          | e :: es -> List.fold_left (fun a b -> Ir.Bin (Ir.Add, a, b)) e es
        in
        {
          Ir.nid = Printf.sprintf "L%d" (k + 1);
          levels = [ { Ir.lvar = "i"; lo; hi; parallel = true } ];
          body = [ Ir.stmt (Ir.aref dst [ i 0 ]) rhs ];
        })
      offsets_per_nest
  in
  let p =
    {
      Ir.pname = name;
      decls = List.map (fun a -> { Ir.aname = a; extents = [ n ] }) arrays;
      nests;
    }
  in
  Ir.validate p;
  p

(* Bit-exact equality of two engine results, floats compared by their
   IEEE-754 bits. *)
let results_identical (a : Exec.result) (b : Exec.result) =
  let bits = Int64.bits_of_float in
  bits a.Exec.cycles = bits b.Exec.cycles
  && Array.map bits a.Exec.phase_cycles = Array.map bits b.Exec.phase_cycles
  && bits a.Exec.barrier_cycles = bits b.Exec.barrier_cycles
  && a.Exec.total_refs = b.Exec.total_refs
  && a.Exec.total_misses = b.Exec.total_misses
  && a.Exec.cold_misses = b.Exec.cold_misses
  && a.Exec.tlb_misses = b.Exec.tlb_misses
  && a.Exec.proc_misses = b.Exec.proc_misses

(* Run [req] with an attached sink and check, against figures computed
   without the engine, that it walked the request's schedule:
   - for every (step, phase, processor), the Box events in stream order
     name that processor's boxes in the schedule: the same nest and
     the same [Schedule.box_iterations];
   - each array's reference count is, summed over every point of every
     box and every statement whose guard holds there, one per read of
     the array plus one if it is the written array (times the steps).
   Fails the test on a mismatch; returns the result. *)
let run_walked (req : Sim.request) =
  let sched = Sim.schedule_of req in
  let steps = req.Sim.steps in
  let sink = Obs.create () in
  let r = Exec.run_opts (Exec.opts ~sink ()) req in
  let key (step, phase, proc, _) = (step, phase, proc) in
  let walked =
    List.filter_map
      (function
        | Obs.Box { step; phase; proc; nest; iters; _ } ->
          Some (step, phase, proc, (nest, iters))
        | _ -> None)
      (Obs.events sink)
    |> List.stable_sort (fun a b -> compare (key a) (key b))
  in
  let scheduled =
    List.concat_map
      (fun step ->
        List.concat
          (List.mapi
             (fun phase (ph : Schedule.phase) ->
               List.concat
                 (Array.to_list
                    (Array.mapi
                       (fun proc boxes ->
                         List.map
                           (fun (b : Schedule.box) ->
                             ( step,
                               phase,
                               proc,
                               (b.Schedule.nest, Schedule.box_iterations b) ))
                           boxes)
                       ph)))
             sched.Schedule.phases))
      (List.init steps (fun s -> s + 1))
  in
  if walked <> scheduled then
    Alcotest.failf "engine walked %d boxes; the schedule has %d (%s)"
      (List.length walked) (List.length scheduled)
      "or they differ in nest, iterations or order";
  let prog = sched.Schedule.prog in
  let nests = Array.of_list prog.Ir.nests in
  let refs = Hashtbl.create 16 in
  let count a =
    Hashtbl.replace refs a
      (steps + Option.value (Hashtbl.find_opt refs a) ~default:0)
  in
  List.iter
    (Array.iter
       (List.iter (fun (b : Schedule.box) ->
            let n = nests.(b.Schedule.nest) in
            let index = List.mapi (fun i v -> (v, i)) (Ir.nest_vars n) in
            let point = Array.make (List.length index) 0 in
            let env x = point.(List.assoc x index) in
            let rec walk d =
              if d = Array.length point then
                List.iter
                  (fun (s : Ir.stmt) ->
                    if Ir.guard_holds s.Ir.guard env then
                      List.iter
                        (fun (a : Ir.aref) -> count a.Ir.array)
                        (s.Ir.lhs :: Ir.stmt_reads s))
                  n.Ir.body
              else
                let lo, hi = b.Schedule.ranges.(d) in
                for v = lo to hi do
                  point.(d) <- v;
                  walk (d + 1)
                done
            in
            walk 0)))
    sched.Schedule.phases;
  List.iter
    (fun (d : Ir.decl) ->
      let want = Option.value (Hashtbl.find_opt refs d.Ir.aname) ~default:0 in
      let got = (Obs.total_of ~array_:d.Ir.aname sink).Obs.t_refs in
      if got <> want then
        Alcotest.failf "array %s: the engine issued %d references, the IR %d"
          d.Ir.aname got want)
    prog.Ir.decls;
  r

(* The counters of [req] recomputed without any of the engine's address
   code.  At every point of every box, each reference of every
   statement whose guard holds is evaluated from its IR subscripts and
   placed with [Partition.find_placement]; the addresses go, in the
   engine's order (the reads, then the write; cache, then TLB), to a
   fresh cache and TLB per processor that persist across phases and
   steps.  A subscript outside its array fails the test. *)
type replayed = {
  refs : int;
  misses : int;
  cold : int;
  tlb : int;
  proc : int array;
}

let replay_addresses (req : Sim.request) =
  let sched = Sim.schedule_of req in
  let layout = Sim.layout_of req in
  let m = req.Sim.machine in
  let prog = sched.Schedule.prog in
  let nests = Array.of_list prog.Ir.nests in
  let nprocs = sched.Schedule.nprocs in
  let caches = Array.init nprocs (fun _ -> Cache.create m.Machine.cache) in
  let tlbs =
    Array.init nprocs (fun _ -> Option.map Cache.create m.Machine.tlb)
  in
  let address (a : Ir.aref) env =
    let p = Partition.find_placement layout a.Ir.array in
    let extents = (Ir.find_decl prog a.Ir.array).Ir.extents in
    let idx =
      List.fold_left2
        (fun (acc, d) (ext, aext) sub ->
          let v = Ir.affine_eval sub env in
          if v < 0 || v >= ext then
            Alcotest.failf "oracle: %s dim %d index %d not in [0,%d)" a.Ir.array
              d v ext;
          ((acc * aext) + v, d + 1))
        (0, 0)
        (List.combine extents (Array.to_list p.Partition.aextents))
        a.Ir.index
      |> fst
    in
    p.Partition.start + (idx * layout.Partition.elem_bytes)
  in
  for _ = 1 to req.Sim.steps do
    List.iter
      (Array.iteri (fun proc boxes ->
           List.iter
             (fun (b : Schedule.box) ->
               let n = nests.(b.Schedule.nest) in
               let index = List.mapi (fun i v -> (v, i)) (Ir.nest_vars n) in
               let point = Array.make (List.length index) 0 in
               let env x = point.(List.assoc x index) in
               let rec walk d =
                 if d = Array.length point then
                   List.iter
                     (fun (s : Ir.stmt) ->
                       if Ir.guard_holds s.Ir.guard env then
                         List.iter
                           (fun a ->
                             let addr = address a env in
                             ignore (Cache.access caches.(proc) addr);
                             Option.iter
                               (fun t -> ignore (Cache.access t addr))
                               tlbs.(proc))
                           (Ir.stmt_reads s @ [ s.Ir.lhs ]))
                     n.Ir.body
                 else
                   let lo, hi = b.Schedule.ranges.(d) in
                   for v = lo to hi do
                     point.(d) <- v;
                     walk (d + 1)
                   done
               in
               walk 0)
             boxes))
      sched.Schedule.phases
  done;
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 caches in
  {
    refs = sum Cache.references;
    misses = sum Cache.miss_count;
    cold = sum (fun c -> (Cache.stats c).Cache.s_cold);
    tlb =
      Array.fold_left
        (fun acc t -> acc + Option.fold ~none:0 ~some:Cache.miss_count t)
        0 tlbs;
    proc = Array.map Cache.miss_count caches;
  }

(* [None] when the engine's [r] has [o]'s counters, else what differs. *)
let replay_mismatch (o : replayed) (r : Exec.result) =
  let diffs =
    List.filter_map
      (fun (name, want, got) ->
        if want = got then None
        else Some (Printf.sprintf "%s %d (oracle %d)" name got want))
      [
        ("refs", o.refs, r.Exec.total_refs);
        ("misses", o.misses, r.Exec.total_misses);
        ("cold", o.cold, r.Exec.cold_misses);
        ("tlb", o.tlb, r.Exec.tlb_misses);
      ]
  in
  let diffs =
    if o.proc = r.Exec.proc_misses then diffs
    else diffs @ [ "per-processor misses" ]
  in
  match diffs with [] -> None | l -> Some (String.concat ", " l)
