(** Simulated scalable shared-memory multiprocessor (paper Figure 1):
    private caches, physically distributed memory, and a cycle cost
    model.  Presets model the paper's KSR2 and Convex SPP-1000. *)

type cost = {
  op : float;  (** cycles per statement instance *)
  hit : float;  (** cycles per cache hit *)
  miss_local : float;  (** penalty per locally-serviced miss *)
  miss_remote : float;  (** extra penalty per remote miss *)
  barrier_base : float;
  barrier_per_proc : float;
  loop_overhead : float;  (** per executed box (loop setup, guards) *)
  iter_overhead : float;  (** per loop iteration *)
  tlb_miss : float;  (** penalty per TLB miss *)
}

type config = {
  mname : string;
  max_procs : int;
  hypernode : int;  (** processors per uniform-cost memory node *)
  cache : Lf_cache.Cache.config;
  tlb : Lf_cache.Cache.config option;
      (** data TLB, modelled as a cache of page-sized lines (Bacon et
          al.'s padding work also targets TLB conflicts, paper §2.4) *)
  cost : cost;
}

val remote_fraction : config -> nprocs:int -> float
(** Fraction of misses serviced remotely: data is distributed across
    the nodes in use, so nothing is remote within one hypernode. *)

val miss_penalty : config -> nprocs:int -> float
val barrier_cost : config -> nprocs:int -> float

val cache_shape : config -> Lf_core.Partition.cache_shape
(** The data cache's geometry as a partitioning shape. *)

val partitioned_layout : config -> Lf_ir.Ir.program -> Lf_core.Partition.layout
(** The cache-partitioned placement (Figure 19) of the program's arrays
    for this machine's data cache. *)

val strip_for : config -> Lf_ir.Ir.program -> int
(** The §3.4 rule of thumb: the largest strip for which one strip of
    every array fits in its cache partition (never below 2). *)

val version : string
(** Fingerprint of the machine cost model and the timed executor
    ({!Exec}) built on it, folded into every {!Sim.digest}.  Bump on
    any observable change to either; no spaces. *)

val ksr2 : config
(** KSR2: 56 processors, 256 KB two-way caches, 32-processor ALLCACHE
    ring; slow clock → relatively cheap misses, hence the paper's
    smaller fusion gains (7-20%). *)

val convex : config
(** Convex SPP-1000: 16 processors in two hypernodes of 8, 1 MB
    direct-mapped caches; fast clock → expensive misses, hence gains of
    30% and more. *)

val pp : Format.formatter -> config -> unit
