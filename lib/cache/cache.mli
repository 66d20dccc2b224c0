(** Set-associative cache simulator with LRU replacement.

    Models the per-processor caches of the paper's two platforms: the
    KSR2 (256 KB two-way) and the Convex SPP-1000 (1 MB direct-mapped).
    Only the address stream matters; data values live in the
    interpreter.

    Two access tiers share one probe/victim core: the scalar tier
    ([access], [access_classified]) consumes one byte address per call,
    and the run tier ([hit_run], [repeat_run]) fast-forwards lockstep
    iterations over a fixed tuple of addresses that the caller has
    proven steady, updating counters, the LRU clock and the stamps in
    closed form to exactly the values the scalar loop would produce
    (DESIGN §6b).

    Only shapes with several ways per set keep LRU stamps.  A
    direct-mapped instance (the Convex preset) holds its tags alone:
    the one way of a set is always the victim, so a stamp would never
    be read. *)

type config = { capacity : int; line : int; assoc : int }
(** Capacity and line size in bytes; [assoc = 1] is direct-mapped. *)

val ksr2_cache : config
(** 256 KB, 64-byte lines, 2-way (KSR2). *)

val convex_cache : config
(** 1 MB, 64-byte lines, direct-mapped (Convex SPP-1000). *)

val version : string
(** Fingerprint of the cache/TLB simulation's observable behaviour,
    folded into every {!Lf_machine.Sim.digest}.  Bump on any change to
    hit/miss classification or replacement; no spaces. *)

type t

type geometry = { shape : config; footprint : int }
(** Everything [of_geometry] needs to build a cache instance: the
    hardware shape plus workload-derived sizing.  [footprint] (bytes, 0
    = unknown) bounds the dense address space the workload touches.
    For line addresses below it, cold-miss tracking uses a bitset
    instead of a hash table, and an instance with one set and several
    ways (a fully associative TLB) finds a line's way through a
    line -> way index (one int per line) instead of scanning every
    way.  Addresses beyond it keep the hash table and the scan, so
    they stay correct.  Grew out of [create]'s optional-argument
    sprawl; new knobs belong here, not as more optional arguments. *)

val geometry : ?footprint:int -> config -> geometry
(** [geometry ?footprint config] — [footprint] defaults to 0. *)

val ksr2_geometry : ?footprint:int -> unit -> geometry
(** The {!ksr2_cache} preset as a geometry (256 KB, 64 B lines,
    2-way). *)

val convex_geometry : ?footprint:int -> unit -> geometry
(** The {!convex_cache} preset as a geometry (1 MB, 64 B lines,
    direct-mapped). *)

val of_geometry : geometry -> t
(** Build a cache, with its cold-miss bitset and, for one-set
    multi-way shapes, its way index sized from [footprint].  Neither
    changes any hit, miss or statistic.  Raises [Invalid_argument] for
    non-power-of-two lines or a capacity not divisible by
    [line * assoc]. *)

val create : ?footprint:int -> config -> t
(** Compatibility wrapper: [create ?footprint config] is
    [of_geometry (geometry ?footprint config)]. *)

val config : t -> config

val reset : t -> unit
(** Invalidate all lines, forget every line ever seen and zero the
    clock and the statistics: the instance becomes indistinguishable
    from a fresh [of_geometry] of its geometry.  The engine recycles
    instances through it, so a simulation allocates no cache state
    when the one before it on its domain had the same geometry
    ({!Lf_machine.Exec.run_opts}). *)

val access : t -> int -> bool
(** [access t addr] touches the byte at [addr]; returns [true] on a
    hit.  Misses fill the line, evicting the LRU way. *)

type classified = {
  cl_hit : bool;
  cl_cold : bool;  (** meaningful only when [cl_hit = false] *)
  cl_line : int;  (** line address of the access *)
  cl_evicted : int;  (** line address displaced on a miss, [-1] if none *)
}

val access_classified : t -> int -> classified
(** Exactly [access], with the outcome reported for observability
    (hit/cold classification, displaced line).  State transitions and
    statistics are identical to [access]. *)

val hit_run : t -> addrs:int array -> k:int -> m:int -> unit
(** [hit_run t ~addrs ~k ~m]: closed form for [m] lockstep iterations
    over the [k] resident lines of [addrs.(0..k-1)], every access a
    hit.  Equivalent to the scalar loop
    [for _ = 1 to m do for j = 0 to k-1 do access t addrs.(j) done done]
    under the precondition (checked) that each line is resident and the
    iteration leaves the cache state unchanged.  Raises
    [Invalid_argument] if a line is absent. *)

val repeat_run : t -> addrs:int array -> hits:bool array -> k:int -> m:int -> unit
(** [repeat_run t ~addrs ~hits ~k ~m]: closed form for [m] further
    lockstep iterations over [addrs.(0..k-1)] repeating the per-access
    outcomes [hits] of the immediately preceding simulated iteration.
    Direct-mapped caches only ([Invalid_argument] otherwise): with one
    way per set, an iteration over a fixed address tuple leaves each
    touched set holding the last line mapped to it regardless of prior
    state, so outcomes are periodic with period 1 (DESIGN §6b).  All
    repeated misses are non-cold. *)

type stats = {
  s_hits : int;
  s_misses : int;
  s_cold : int;  (** compulsory misses (line never seen before) *)
  s_conflict_capacity : int;  (** all other misses *)
}

val stats : t -> stats
val hit_count : t -> int
val miss_count : t -> int
val references : t -> int
val miss_rate : t -> float
val pp_stats : Format.formatter -> stats -> unit
