(* Lowering a scripted state to schedules and simulation requests.

   The guiding rule: reuse the canonical Sim variants whenever the
   scripted state matches one (so the persistent store's digests line
   up with the enum-built requests the rest of the system issues), and
   fall back to an Explicit prebuilt schedule otherwise.  In
   particular, Schedule.unfused block-partitions every nest regardless
   of parallel flags, so any program containing a serial (e.g.
   plain-fused-then-serialized) nest must go through the Cluster
   builder, which runs serial nests whole on processor 0. *)

module Ir = Lf_ir.Ir
module Dep = Lf_dep.Dep
module Derive = Lf_core.Derive
module Schedule = Lf_core.Schedule
module Cluster = Lf_core.Cluster
module Partition = Lf_core.Partition
module Wavefront = Lf_core.Wavefront
module Sim = Lf_machine.Sim
module Machine = Lf_machine.Machine

let whole_program_derive (st : Script.state) =
  match st.Script.groups with
  | [ g ] when List.length g.Script.members = List.length st.Script.prog.Ir.nests
    ->
    Some (Script.group_derive st g)
  | _ -> None

(* Any nest a naive block-partition would mishandle: a serial outer
   level, or a doall the dependence machinery cannot verify. *)
let needs_serial (p : Ir.program) =
  List.exists
    (fun (n : Ir.nest) ->
      (not (List.hd n.Ir.levels).Ir.parallel) || Dep.verify_doall n <> Ok ())
    p.Ir.nests

let cluster_groups (st : Script.state) =
  let ids =
    Array.of_list (List.map (fun (n : Ir.nest) -> n.Ir.nid) st.Script.prog.Ir.nests)
  in
  let n = Array.length ids in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match
        List.find_opt
          (fun (g : Script.group) ->
            String.equal (List.hd g.Script.members) ids.(i))
          st.Script.groups
      with
      | Some g ->
        let members = List.length g.Script.members in
        go (i + members)
          ({ Cluster.start = i; members; fused = true; why = g.Script.gname }
          :: acc)
      | None ->
        go (i + 1)
          ({ Cluster.start = i; members = 1; fused = false; why = "unfused" }
          :: acc)
  in
  go 0 []

let min_group_depth st =
  List.fold_left
    (fun acc g -> min acc (fst (Script.group_derive st g)))
    max_int st.Script.groups

let schedule ?grid ~nprocs (st : Script.state) =
  let p = st.Script.prog in
  match st.Script.style with
  | Script.Wave tile ->
    let depth = max 1 (Dep.max_parallel_depth p) in
    let derive = Derive.of_program ~depth p in
    Wavefront.schedule ?tile ~derive ~nprocs p
  | Script.Peel -> (
    match whole_program_derive st with
    | Some (_depth, derive) ->
      Schedule.fused ?grid ?strip:st.Script.strip ~derive ~nprocs p
    | None ->
      if st.Script.groups = [] && not (needs_serial p) then
        Schedule.unfused ?grid ~nprocs p
      else
        (* Cluster fuses each group at a uniform depth; use the
           shallowest group depth so every group stays legal. *)
        let depth =
          if st.Script.groups = [] then 1 else max 1 (min_group_depth st)
        in
        Cluster.schedule ~depth ?grid ?strip:st.Script.strip ~nprocs p
          (cluster_groups st))

let layout ~machine (st : Script.state) =
  if not st.Script.partitioned then None
  else Some (Machine.partitioned_layout machine st.Script.prog)

let request ?steps ?mode ~machine ~nprocs (st : Script.state) =
  let p = st.Script.prog in
  let layout = layout ~machine st in
  match st.Script.style with
  | Script.Wave _ ->
    Sim.of_schedule ?layout ?steps ?mode ~machine (schedule ~nprocs st)
  | Script.Peel -> (
    match whole_program_derive st with
    | Some (_depth, derive) ->
      Sim.fused ?strip:st.Script.strip ~derive ?layout ?steps ?mode ~machine
        ~nprocs p
    | None ->
      if st.Script.groups = [] && not (needs_serial p) then
        Sim.unfused ?layout ?steps ?mode ~machine ~nprocs p
      else
        Sim.of_schedule ?layout ?steps ?mode ~machine (schedule ~nprocs st))
