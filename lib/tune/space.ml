(* The autotuner's search space (see space.mli).

   The axes follow the knobs the paper sets by hand: Table 2 fixes the
   transformation (fused shift-and-peel), Figure 12's rule fixes the
   strip size, Figure 19's greedy layout fixes the data placement.  Here
   each becomes a coordinate of a candidate, and the paper's choices are
   one point — [paper_default] — that every search keeps as a floor. *)

module Ir = Lf_ir.Ir
module Machine = Lf_machine.Machine
module Cache = Lf_cache.Cache
module Schedule = Lf_core.Schedule
module Derive = Lf_core.Derive
module Partition = Lf_core.Partition
module Cluster = Lf_core.Cluster
module Wavefront = Lf_core.Wavefront
module Alignrep = Lf_core.Alignrep

type variant =
  | Unfused
  | Fused of { clustered : bool; strip : int }
  | Wavefront of { tile : int }
  | Alignrep of { strip : int }

type layout_spec =
  | Contiguous
  | Padded of int
  | Partitioned of { assoc_aware : bool }

type candidate = { variant : variant; layout : layout_spec }

let paper_default ~machine p =
  {
    variant = Fused { clustered = false; strip = Machine.strip_for machine p };
    layout = Partitioned { assoc_aware = true };
  }

let strips ?(sweep = true) ~machine p =
  let rule = Machine.strip_for machine p in
  if not sweep then [ rule ]
  else
    let around =
      [ rule / 4; rule / 2; rule * 2; rule * 4; Schedule.default_strip ]
    in
    rule
    :: List.sort_uniq compare
         (List.filter (fun s -> s >= 2 && s <> rule) around)

let layouts ~machine =
  let assoc = machine.Machine.cache.Cache.assoc in
  [ Partitioned { assoc_aware = true } ]
  @ (if assoc > 1 then [ Partitioned { assoc_aware = false } ] else [])
  @ [ Contiguous; Padded 1; Padded 9 ]

let variants ?sweep ~machine p =
  let rule = Machine.strip_for machine p in
  let fused_strips =
    List.map
      (fun strip -> Fused { clustered = false; strip })
      (strips ?sweep ~machine p)
  in
  fused_strips
  @ [ Fused { clustered = true; strip = rule }; Unfused ]
  @ [ Wavefront { tile = 16 }; Wavefront { tile = 64 } ]
  @ [ Alignrep { strip = rule } ]

let enumerate ?sweep ~machine p =
  let default = paper_default ~machine p in
  let all =
    List.concat_map
      (fun variant ->
        List.map (fun layout -> { variant; layout }) (layouts ~machine))
      (variants ?sweep ~machine p)
  in
  default :: List.filter (fun c -> c <> default) all

let build ?(depth = 1) ~machine ~nprocs (p : Ir.program) cand =
  try
    let sched =
      match cand.variant with
      | Unfused -> Schedule.unfused ~depth ~nprocs p
      | Fused { clustered = false; strip } ->
        let derive = Derive.of_program ~depth p in
        Schedule.fused ~strip ~derive ~nprocs p
      | Fused { clustered = true; strip } ->
        Cluster.schedule ~depth ~strip ~nprocs p (Cluster.groups ~depth p)
      | Wavefront { tile } ->
        let derive = Derive.of_program ~depth p in
        Wavefront.schedule ~tile ~derive ~nprocs p
      | Alignrep { strip } -> (
        match Alignrep.transform p with
        | Error e -> failwith ("alignrep: " ^ e)
        | Ok r -> Alignrep.schedule ~strip ~nprocs r)
    in
    let decls = sched.Schedule.prog.Ir.decls in
    let layout =
      match cand.layout with
      | Contiguous -> Partition.contiguous decls
      | Padded pad -> Partition.padded ~pad decls
      | Partitioned { assoc_aware } ->
        let shape = Machine.cache_shape machine in
        let shape =
          if assoc_aware then shape else { shape with Partition.assoc = 1 }
        in
        Partition.cache_partitioned ~cache:shape decls
    in
    Ok (sched, layout)
  with
  | Schedule.Illegal m -> Error ("illegal: " ^ m)
  | Derive.Not_applicable m -> Error ("derive: " ^ m)
  | Failure m -> Error m
  | Invalid_argument m -> Error ("invalid: " ^ m)

let variant_to_string = function
  | Unfused -> "unfused"
  | Fused { clustered = false; strip } -> Printf.sprintf "fused(strip=%d)" strip
  | Fused { clustered = true; strip } ->
    Printf.sprintf "clustered(strip=%d)" strip
  | Wavefront { tile } -> Printf.sprintf "wavefront(tile=%d)" tile
  | Alignrep { strip } -> Printf.sprintf "align+rep(strip=%d)" strip

let layout_to_string = function
  | Contiguous -> "contiguous"
  | Padded pad -> Printf.sprintf "pad:%d" pad
  | Partitioned { assoc_aware = true } -> "partitioned"
  | Partitioned { assoc_aware = false } -> "partitioned(naive)"

let to_string c =
  variant_to_string c.variant ^ " + " ^ layout_to_string c.layout

let pp ppf c = Fmt.string ppf (to_string c)
