(** Materialisation of a recorded DAG, eager or planned.

    Both strategies share one environment discipline: arrays are keyed
    by their {e canonical} names, anything not yet computed reads as
    {!Lf_ir.Interp.default_init} of that name, and each step's outputs
    are copied into the environment.  Because the canonical names are
    a function of the DAG (not the recording order), and halo elements
    are never written by any strategy, eager per-op evaluation and
    fused block execution agree bit-for-bit — the tentpole qcheck
    property. *)

type env = (string, float array) Hashtbl.t

val env_create : unit -> env

val init_of : env -> string -> int -> float
(** The store initialiser serving already-materialised arrays from the
    environment and {!Lf_ir.Interp.default_init} for everything else
    (sources included — a source's contents {e are} its default
    init). *)

val eager : Plan.t -> env
(** Op-at-a-time reference evaluation: every op interpreted as its own
    single-nest program through {!Lf_ir.Interp}, in recording order.
    Uses the plan only for its canonical names. *)

val materialise : Plan.t -> env
(** Execute the plan's blocks in order with the untimed
    {!Lf_core.Schedule.execute}. *)

val advance : env -> Plan.block -> unit
(** Execute one block untimed and fold its outputs into [env] — the
    stepping primitive external backends (native verification in [lfc
    trace]) interleave with their own per-block work. *)

val simulate :
  ?opts:Lf_batch.Run_opts.t ->
  ?pool:Lf_parallel.Pool.t ->
  ?scope:Lf_batch.Batch.Counters.scope ->
  machine:Lf_machine.Machine.config ->
  Plan.t ->
  Lf_batch.Batch.outcome array * Lf_batch.Batch.summary
(** Dispatch the plan's per-block requests through
    {!Lf_batch.Batch.run_with}: store hits, dedup, sharding, timeouts
    — the whole request pipeline — now apply to traces.  The engine
    tier comes from [opts.engine] (default [Run_compressed]).  Note
    per-block simulations start cold caches: fused-vs-op-at-a-time
    comparisons measure within-block locality. *)

val force : ?fuse:bool -> ?nprocs:int -> ?strip:int -> Node.view -> float array
(** Materialise the view's context (planned, fused by default) and
    return a copy of the view's array.  A view carrying a
    nonzero shift offset is snapshotted through an implicit [Id] map
    first, so the result always has the node's full shape.  The
    environment is cached on the context keyed by the plan signature —
    repeated forces of an unchanged context do not re-execute. *)

val sum : ?fuse:bool -> ?nprocs:int -> ?strip:int -> Node.view -> float
(** Reduction: {!force} then a left-to-right float sum (order fixed,
    so the result is deterministic). *)

val flush : ?fuse:bool -> ?nprocs:int -> ?strip:int -> Node.ctx -> unit
(** Materialise everything recorded so far and cache the environment
    on the context. *)
