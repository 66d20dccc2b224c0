(* First-class simulation requests (see sim.mli).

   The canonical form is a line-oriented text rendering of every field
   that can influence a simulated observable.  Stability rules:

   - the program is included via [Ir.program_to_string], the same
     deterministic printer the front end round-trips through;
   - floats (machine cost coefficients) are rendered with [%h], which
     round-trips IEEE doubles exactly — two configs differing in the
     last ulp of a cost coefficient get different digests;
   - arrays and lists are length-prefixed so concatenations cannot
     collide;
   - an [Explicit] schedule is serialised structurally (grid, labels,
     then every phase's per-processor box lists), so any schedule a
     caller can build has a stable name.

   Anything host-side (jobs, pool, sink) is excluded by construction:
   it is not representable in a [request]. *)

module Ir = Lf_ir.Ir
module Schedule = Lf_core.Schedule
module Partition = Lf_core.Partition
module Derive = Lf_core.Derive
module Cache = Lf_cache.Cache

type mode = Miss_only | Run_compressed

type variant =
  | Unfused of { grid : int array option; depth : int option }
  | Fused of {
      grid : int array option;
      strip : int option;
      derive : Derive.t option;
    }
  | Explicit of Schedule.t

type request = {
  prog : Ir.program;
  machine : Machine.config;
  variant : variant;
  layout : Partition.layout option;
  nprocs : int;
  steps : int;
  mode : mode;
}

let make ?layout ?(steps = 1) ?(mode = Run_compressed) ~machine ~nprocs ~variant prog =
  if nprocs < 1 then invalid_arg "Sim.make: nprocs < 1";
  if steps < 1 then invalid_arg "Sim.make: steps < 1";
  { prog; machine; variant; layout; nprocs; steps; mode }

let unfused ?grid ?depth ?layout ?steps ?mode ~machine ~nprocs prog =
  make ?layout ?steps ?mode ~machine ~nprocs
    ~variant:(Unfused { grid; depth })
    prog

let fused ?grid ?strip ?derive ?layout ?steps ?mode ~machine ~nprocs prog =
  make ?layout ?steps ?mode ~machine ~nprocs
    ~variant:(Fused { grid; strip; derive })
    prog

let of_schedule ?layout ?steps ?mode ~machine (sched : Schedule.t) =
  make ?layout ?steps ?mode ~machine ~nprocs:sched.Schedule.nprocs
    ~variant:(Explicit sched) sched.Schedule.prog

let schedule_of r =
  match r.variant with
  | Explicit s -> s
  | Unfused { grid; depth } ->
    Schedule.unfused ?grid ?depth ~nprocs:r.nprocs r.prog
  | Fused { grid; strip; derive } ->
    Schedule.fused ?grid ?strip ?derive ~nprocs:r.nprocs r.prog

(* Pure legality probe: can the request's schedule actually be built?
   Small iteration spaces can violate the Theorem 1 threshold for fused
   variants.  No domains are touched, so the probe is fork-safe — the
   serve bench and the script realizer both rely on that. *)
let legal r = match schedule_of r with _ -> true | exception _ -> false

let layout_of r =
  match r.layout with
  | Some l -> l
  | None -> Partition.contiguous r.prog.Ir.decls

(* Version of the request serialisation itself (field set, canonical
   text layout).  Behavioural versioning lives in the per-module
   fingerprints below; bump this only when [canonical] changes shape. *)
let version_salt = "lf-sim-1"

(* ------------------------------------------------------------------ *)
(* Per-module fingerprints                                             *)

module Fingerprint = struct
  type t = (string * string) list

  (* Canonical order; every digest folds its subset in this order. *)
  let builtin =
    [
      ("cache", Cache.version);
      ("derive", Derive.version);
      ("ir", Ir.version);
      ("machine", Machine.version);
      ("partition", Partition.version);
      ("schedule", Schedule.version);
    ]

  let overrides : (string, string) Hashtbl.t = Hashtbl.create 7

  let valid_value v =
    v <> ""
    && String.for_all
         (fun c -> c <> ' ' && c <> '\t' && c <> '\n' && c <> '\r')
         v

  let set_override name value =
    if not (List.mem_assoc name builtin) then
      Error (Printf.sprintf "unknown module %S (try %s)" name
               (String.concat ", " (List.map fst builtin)))
    else if not (valid_value value) then
      Error (Printf.sprintf "invalid fingerprint value %S (nonempty, no whitespace)" value)
    else begin
      Hashtbl.replace overrides name value;
      Ok ()
    end

  let set_spec spec =
    match String.index_opt spec '=' with
    | None -> Error (Printf.sprintf "bad fingerprint spec %S (want module=value)" spec)
    | Some i ->
      set_override
        (String.sub spec 0 i)
        (String.sub spec (i + 1) (String.length spec - i - 1))

  let clear_overrides () = Hashtbl.reset overrides

  let value name =
    match Hashtbl.find_opt overrides name with
    | Some v -> v
    | None -> List.assoc name builtin

  let all () = List.map (fun (n, _) -> (n, value n)) builtin

  (* The save/load file lets cooperating processes (sweep enqueuer,
     queue workers) agree on one fingerprint view even when the
     enqueuer carries overrides: one "name value" line per module,
     written atomically so a reader never sees a torn view. *)
  let save_file path =
    let dir = Filename.dirname path in
    let tmp = Filename.temp_file ~temp_dir:dir ".lffp" ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc "lffp1\n";
    List.iter (fun (n, v) -> Printf.fprintf oc "%s %s\n" n v) (all ());
    close_out oc;
    Sys.rename tmp path

  let load_file path =
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic ->
      let fin r = close_in_noerr ic; r in
      (match input_line ic with
      | exception End_of_file -> fin (Error "empty fingerprint file")
      | "lffp1" ->
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> Ok ()
          | line when String.trim line = "" -> loop ()
          | line ->
            (match String.index_opt line ' ' with
            | None -> Error (Printf.sprintf "bad fingerprint line %S" line)
            | Some i ->
              let name = String.sub line 0 i in
              let v = String.sub line (i + 1) (String.length line - i - 1) in
              (match set_override name v with
              | Ok () -> loop ()
              | Error _ as e -> e))
        in
        fin (loop ())
      | l -> fin (Error (Printf.sprintf "bad fingerprint header %S" l)))

  (* Which modules can influence this request's observables.  ir, cache
     and machine always can.  schedule only when the schedule is rebuilt
     at replay time (Explicit requests serialise the structure).  derive
     only when the fused variant derives its shift/peel itself; an
     explicit Derive.t is serialised as data.  partition only when the
     request falls back to the default constructed layout. *)
  let modules_of r =
    let schedule, derive =
      match r.variant with
      | Unfused _ -> (true, false)
      | Fused { derive; _ } -> (true, derive = None)
      | Explicit _ -> (false, false)
    in
    let partition = r.layout = None in
    List.filter
      (fun (n, _) ->
        match n with
        | "schedule" -> schedule
        | "derive" -> derive
        | "partition" -> partition
        | _ -> true)
      builtin
    |> List.map fst

  let of_request r = List.map (fun n -> (n, value n)) (modules_of r)
end

let mode_to_string = function
  | Miss_only -> "miss-only"
  | Run_compressed -> "runs"

let mode_of_string = function
  | "runs" | "run-compressed" -> Ok Run_compressed
  | "miss-only" -> Ok Miss_only
  | s -> Error ("unknown engine " ^ s ^ " (try runs, miss-only)")

(* ------------------------------------------------------------------ *)
(* Canonical serialisation                                             *)

let add_int b n = Buffer.add_string b (string_of_int n); Buffer.add_char b ' '

let add_float b f =
  Buffer.add_string b (Printf.sprintf "%h" f);
  Buffer.add_char b ' '

let add_str b s =
  (* length-prefixed so adjacent strings cannot collide *)
  add_int b (String.length s);
  Buffer.add_string b s;
  Buffer.add_char b ' '

let add_int_array b a =
  add_int b (Array.length a);
  Array.iter (add_int b) a

let add_opt b add = function
  | None -> Buffer.add_string b "- "
  | Some v ->
    Buffer.add_string b "+ ";
    add b v

let add_cache_config b (c : Cache.config) =
  add_int b c.Cache.capacity;
  add_int b c.Cache.line;
  add_int b c.Cache.assoc

let add_machine b (m : Machine.config) =
  add_str b m.Machine.mname;
  add_int b m.Machine.max_procs;
  add_int b m.Machine.hypernode;
  add_cache_config b m.Machine.cache;
  add_opt b add_cache_config m.Machine.tlb;
  let c = m.Machine.cost in
  List.iter (add_float b)
    [
      c.Machine.op; c.Machine.hit; c.Machine.miss_local; c.Machine.miss_remote;
      c.Machine.barrier_base; c.Machine.barrier_per_proc;
      c.Machine.loop_overhead; c.Machine.iter_overhead; c.Machine.tlb_miss;
    ]

let add_layout b (l : Partition.layout) =
  add_int b l.Partition.elem_bytes;
  add_int b l.Partition.total_bytes;
  add_int b (List.length l.Partition.placements);
  List.iter
    (fun (name, (p : Partition.placement)) ->
      add_str b name;
      add_str b p.Partition.name;
      add_int b p.Partition.start;
      add_int_array b p.Partition.aextents)
    l.Partition.placements

let add_derive b (d : Derive.t) =
  add_int b d.Derive.depth;
  add_int b d.Derive.nnests;
  let mat m =
    add_int b (Array.length m);
    Array.iter (add_int_array b) m
  in
  mat d.Derive.shift;
  mat d.Derive.peel

let add_schedule b (s : Schedule.t) =
  add_int b s.Schedule.nprocs;
  add_int_array b s.Schedule.grid;
  add_int b (List.length s.Schedule.labels);
  List.iter (add_str b) s.Schedule.labels;
  add_int b (List.length s.Schedule.phases);
  List.iter
    (fun (ph : Schedule.phase) ->
      add_int b (Array.length ph);
      Array.iter
        (fun boxes ->
          add_int b (List.length boxes);
          List.iter
            (fun (bx : Schedule.box) ->
              add_int b bx.Schedule.nest;
              add_int b (Array.length bx.Schedule.ranges);
              Array.iter
                (fun (lo, hi) ->
                  add_int b lo;
                  add_int b hi)
                bx.Schedule.ranges)
            boxes)
        ph)
    s.Schedule.phases

let add_variant b = function
  | Unfused { grid; depth } ->
    Buffer.add_string b "unfused ";
    add_opt b add_int_array grid;
    add_opt b add_int depth
  | Fused { grid; strip; derive } ->
    Buffer.add_string b "fused ";
    add_opt b add_int_array grid;
    add_opt b add_int strip;
    add_opt b add_derive derive
  | Explicit s ->
    Buffer.add_string b "explicit ";
    add_schedule b s

let canonical r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "lf-request ";
  add_str b (Ir.program_to_string r.prog);
  Buffer.add_string b "\nmachine ";
  add_machine b r.machine;
  Buffer.add_string b "\nvariant ";
  add_variant b r.variant;
  Buffer.add_string b "\nlayout ";
  add_opt b add_layout r.layout;
  Buffer.add_string b "\nnprocs ";
  add_int b r.nprocs;
  Buffer.add_string b "\nsteps ";
  add_int b r.steps;
  Buffer.add_string b "\nmode ";
  Buffer.add_string b (mode_to_string r.mode);
  Buffer.contents b

(* The salt line folds in only the fingerprints of the modules this
   request depends on, so bumping one module's version invalidates
   exactly the digests that could replay differently. *)
let salt_line r =
  let b = Buffer.create 96 in
  Buffer.add_string b version_salt;
  List.iter
    (fun (n, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b n;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    (Fingerprint.of_request r);
  Buffer.contents b

let digest r = Digest.to_hex (Digest.string (salt_line r ^ "\n" ^ canonical r))

let variant_label = function
  | Unfused _ -> "unfused"
  | Fused _ -> "fused"
  | Explicit s ->
    Printf.sprintf "explicit(%d phases)" (List.length s.Schedule.phases)

let pp ppf r =
  Format.fprintf ppf "%s on %s: %s, P=%d, steps=%d, %s" r.prog.Ir.pname
    r.machine.Machine.mname (variant_label r.variant) r.nprocs r.steps
    (mode_to_string r.mode)
