(** First-class simulation requests: one value that {e names} a
    simulation.  {!Exec.run_opts} simulates a request; the persistent
    result store ({!Lf_batch.Batch.Store}) and the batch layer
    ({!Lf_batch.Batch.run_with}) key on it.  A {!request} captures
    everything that determines the simulated observables:

    - the program (its canonical printed form),
    - the machine configuration (geometry and every cost coefficient),
    - the schedule variant (unfused / fused shift-and-peel / an explicit
      prebuilt schedule, serialised box by box),
    - the memory layout (concrete placements, padding included),
    - the number of simulated processors, the step count, and the
      engine mode.

    {b Cache-key discipline.}  Host-side execution knobs — [jobs],
    [pool], an attached [sink] — are deliberately {e outside} the
    request: the engine guarantees they are bit-identity-preserving
    (test/test_engine.ml, test/test_obs.ml), so they can vary freely
    between the run that produced a cached result and the run that
    reuses it.  Everything that could change a single observable bit is
    {e inside} the request and hence inside {!digest}.

    {!digest} is salted with {!version_salt} plus the {!Fingerprint}s
    of exactly the modules the request depends on; bump a module's
    [version] whenever its observable behaviour changes so stale
    persisted results can never be replayed (test/test_batch.ml pins
    known digests), without cold-starting results that never depended
    on that module. *)

type mode = Miss_only | Run_compressed
(** Engine tier, re-exported by {!Exec.mode} (which documents the
    tiers).  Both produce bit-identical observables. *)

type variant =
  | Unfused of { grid : int array option; depth : int option }
      (** {!Lf_core.Schedule.unfused}: one block-scheduled phase per
          nest. *)
  | Fused of {
      grid : int array option;
      strip : int option;
      derive : Lf_core.Derive.t option;
    }
      (** {!Lf_core.Schedule.fused}: shift-and-peel at [strip]. *)
  | Explicit of Lf_core.Schedule.t
      (** A prebuilt schedule (clustered, wavefront, alignment+
          replication, ...), serialised structurally — phases, boxes and
          ranges — so any schedule has a stable digest. *)

type request = {
  prog : Lf_ir.Ir.program;
  machine : Machine.config;
  variant : variant;
  layout : Lf_core.Partition.layout option;
      (** [None] = the dense contiguous default layout. *)
  nprocs : int;
  steps : int;
  mode : mode;
}

val make :
  ?layout:Lf_core.Partition.layout ->
  ?steps:int ->
  ?mode:mode ->
  machine:Machine.config ->
  nprocs:int ->
  variant:variant ->
  Lf_ir.Ir.program ->
  request
(** [steps] defaults to 1, [mode] to [Run_compressed]. *)

val unfused :
  ?grid:int array ->
  ?depth:int ->
  ?layout:Lf_core.Partition.layout ->
  ?steps:int ->
  ?mode:mode ->
  machine:Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  request

val fused :
  ?grid:int array ->
  ?strip:int ->
  ?derive:Lf_core.Derive.t ->
  ?layout:Lf_core.Partition.layout ->
  ?steps:int ->
  ?mode:mode ->
  machine:Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  request

val of_schedule :
  ?layout:Lf_core.Partition.layout ->
  ?steps:int ->
  ?mode:mode ->
  machine:Machine.config ->
  Lf_core.Schedule.t ->
  request
(** Wrap a prebuilt schedule; [nprocs] and the program come from the
    schedule itself. *)

val schedule_of : request -> Lf_core.Schedule.t
(** Realise the request's schedule ([Explicit] returns it unchanged).
    May raise what {!Lf_core.Schedule.fused} raises on an illegal
    fusion. *)

val legal : request -> bool
(** Pure legality probe: [true] iff {!schedule_of} succeeds (small
    iteration spaces can violate the Theorem 1 threshold for fused
    variants).  Touches no domains, so it is fork-safe; the single
    source of truth shared by the serve bench and the script engine. *)

val layout_of : request -> Lf_core.Partition.layout
(** The request's layout, defaulting to dense contiguous placement. *)

val version_salt : string
(** Version of the request serialisation itself, mixed into every
    {!digest}.  Behavioural versioning lives in the per-module
    {!Fingerprint}s; bump this only when {!canonical} changes shape. *)

(** Per-module behaviour fingerprints salted into {!digest}.

    Each library module whose code can alter a simulated observable
    exports a [version] string (Ir, Schedule, Derive, Partition, Cache,
    Machine — the last also covering the timed executor).  A request's
    digest folds in only the fingerprints of the modules it actually
    depends on:

    - ["ir"], ["cache"], ["machine"] — always;
    - ["schedule"] — only when the schedule is rebuilt at replay time
      ([Unfused]/[Fused]; [Explicit] serialises the structure);
    - ["derive"] — only for [Fused] with [derive = None] (an explicit
      [Derive.t] is serialised as data);
    - ["partition"] — only when [layout = None] (the constructed default
      layout).

    Bumping one module's version therefore invalidates exactly the
    store entries that could replay differently — e.g. a [Derive] bump
    cold-starts fused-variant digests and nothing else, and modules
    with no fingerprint at all (the autotuner, the CLI) never
    invalidate anything. *)
module Fingerprint : sig
  type t = (string * string) list
  (** Module-name/version pairs in canonical (alphabetical) order. *)

  val all : unit -> t
  (** The full live fingerprint set (overrides applied). *)

  val modules_of : request -> string list
  (** Names of the modules this request depends on. *)

  val of_request : request -> t
  (** The live fingerprints of exactly {!modules_of}. *)

  val value : string -> string
  (** Live value for a module name; raises [Not_found] if unknown. *)

  val set_override : string -> string -> (unit, string) result
  (** Replace one module's fingerprint process-wide (testing and the
      sweep invalidation experiment).  Fails on unknown module names
      and on values containing whitespace. *)

  val set_spec : string -> (unit, string) result
  (** [set_spec "module=value"] — the [--fingerprint] CLI form. *)

  val clear_overrides : unit -> unit

  val save_file : string -> unit
  (** Atomically write the live set as one ["name value"] line per
      module, so cooperating processes (sweep enqueuer, queue workers)
      share one fingerprint view. *)

  val load_file : string -> (unit, string) result
  (** Install every entry of a {!save_file} file as an override. *)
end

val canonical : request -> string
(** Canonical serialisation: a stable, human-greppable text form that
    two structurally equal requests map to byte-for-byte.  Floats are
    rendered in hexadecimal ([%h]) so the round trip is exact. *)

val digest : request -> string
(** Hex digest of {!version_salt}, the request's {!Fingerprint.of_request}
    pairs and {!canonical} — the content address used by the persistent
    store. *)

val mode_to_string : mode -> string
(** ["miss-only"], ["runs"] — the [--engine] vocabulary. *)

val mode_of_string : string -> (mode, string) result
(** Inverse of {!mode_to_string}, also accepting ["run-compressed"].
    Its error message is the one text for an unknown engine name. *)

val pp : Format.formatter -> request -> unit
(** One-line summary: program name, machine, variant, nprocs, mode. *)
