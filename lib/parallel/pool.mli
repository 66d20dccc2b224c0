(** Persistent domain pool with fork-join parallel regions: one worker
    per (simulated) processor, the caller doubling as worker 0, with a
    join after every region.

    Every parallel layer runs on it: [Lf_native.Native] runs one region
    per execution, worker [w] playing processor [w] with a
    {!Spin_barrier} between phases; the simulator and the batch layer
    drain processors or requests with {!dynamic_for}.  Static block
    bounds are [Lf_core.Schedule.block]'s, not this module's.

    Pools are meant to be reused: one pool serves every phase and step
    of a simulated run (and every candidate of an autotuning search)
    rather than spawning domains per invocation.

    Between regions an idle worker spins, polling for the next region
    with {!Domain.cpu_relax} for about 100 000 rounds (a few
    milliseconds), and only then parks on a condition variable; the
    caller waiting for the join spins the same way before it parks.
    So regions that follow each other closely, like the repetitions of
    a measurement, start without a wake-up, while an idle pool costs
    no CPU beyond the spin.  A pool with more workers than
    {!Domain.recommended_domain_count} spins only about 100 rounds,
    since a spinner would take the core a peer needs. *)

type t

val create : int -> t
(** [create n] spawns [n - 1] domains (plus the caller). *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f w] on every worker [w]; returns when all have
    finished (join).  Exception-safe: a raising closure never strands
    the join; the region's first exception is re-raised on the caller
    after all workers have finished. *)

val dynamic_for : ?chunk:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** Self-scheduled (work-stealing) parallel for: workers claim the next
    [chunk] (default 1) indices from a shared counter until [lo..hi] is
    drained, so imbalanced iterations cost at most one chunk of idle
    time per worker.  Iteration order across workers is unspecified —
    the iterations must be independent. *)

val shutdown : t -> unit
(** Terminate and join the worker domains; a worker still spinning
    after the last region stops at once. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool of [n] workers and
    shuts it down afterwards, even if [f] raises. *)
