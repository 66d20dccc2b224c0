(* Simulated scalable shared-memory multiprocessor (paper Figure 1).

   Each processor has a private cache; memory is physically distributed,
   so a miss costs more when it must be serviced from a remote node.
   The Convex SPP-1000 groups 8 processors per hypernode: runs with more
   than 8 processors pay remote penalties for the fraction of memory
   held beyond the local hypernode, which reproduces the speedup dip the
   paper observes for spem past 8 processors.  The KSR2's ALLCACHE ring
   gives a gentler, uniform remote fraction.

   Cycle model per processor:
     t = ops * op + hits * hit + misses * (miss_local + rf * miss_remote)
         + boxes * loop_overhead + iterations * iter_overhead
   and per phase the machine advances by max over processors plus a
   barrier cost linear in the processor count. *)

type cost = {
  op : float;  (* cycles per statement instance *)
  hit : float;  (* cycles per cache hit *)
  miss_local : float;  (* penalty per local miss *)
  miss_remote : float;  (* extra penalty per remote miss *)
  barrier_base : float;
  barrier_per_proc : float;
  loop_overhead : float;  (* per executed box (loop setup, guards) *)
  iter_overhead : float;  (* per loop iteration (index update, bounds) *)
  tlb_miss : float;  (* penalty per TLB miss *)
}

type config = {
  mname : string;
  max_procs : int;
  hypernode : int;  (* processors per node with uniform-cost memory *)
  cache : Lf_cache.Cache.config;
  tlb : Lf_cache.Cache.config option;  (* data TLB, modelled as a cache
                                          of page-sized lines *)
  cost : cost;
}

(* Fraction of misses serviced remotely when [nprocs] are used: data is
   distributed across the nodes in use, so a processor finds
   (hypernode / nprocs) of it locally. *)
let remote_fraction m ~nprocs =
  if nprocs <= m.hypernode then 0.0
  else float_of_int (nprocs - m.hypernode) /. float_of_int nprocs

let miss_penalty m ~nprocs =
  m.cost.miss_local +. (remote_fraction m ~nprocs *. m.cost.miss_remote)

let barrier_cost m ~nprocs =
  m.cost.barrier_base +. (m.cost.barrier_per_proc *. float_of_int nprocs)

(* The data cache as the shape the cache-partitioned layout places
   arrays for. *)
let cache_shape m =
  {
    Lf_core.Partition.capacity = m.cache.Lf_cache.Cache.capacity;
    line = m.cache.Lf_cache.Cache.line;
    assoc = m.cache.Lf_cache.Cache.assoc;
  }

let partitioned_layout m (p : Lf_ir.Ir.program) =
  Lf_core.Partition.cache_partitioned ~cache:(cache_shape m) p.Lf_ir.Ir.decls

(* The strip-size rule of paper §3.4: one fused iteration touches one
   inner "row" of each array, and a strip of such rows of every array
   must fit in the array's cache partition. *)
let strip_for m (p : Lf_ir.Ir.program) =
  let decls = p.Lf_ir.Ir.decls in
  let inner_bytes =
    List.fold_left
      (fun acc (d : Lf_ir.Ir.decl) ->
        match d.extents with
        | [] -> acc
        | _ :: rest -> max acc (List.fold_left ( * ) 8 rest))
      8 decls
  in
  let sp =
    Lf_core.Partition.partition_size ~cache:(cache_shape m)
      ~narrays:(List.length decls)
  in
  max 2 ((sp / inner_bytes) - 2)

(* Observable-behaviour fingerprint of the machine model AND of the
   timed executor built on top of it (Exec sits above Sim in the module
   graph, so its version lives here where sim.ml can read it).  Bump on
   any change to the cycle model, miss attribution, or executor
   semantics; no spaces. *)
let version = "lf-machine-1"

(* KSR2: 40 MHz processors, 256 KB two-way set-associative caches, up to
   56 processors on the ALLCACHE ring.  Slow clock relative to its
   memory gives a comparatively low miss penalty, which is why the paper
   sees smaller fusion gains (7-20%) on this machine. *)
let ksr2 =
  {
    mname = "KSR2";
    max_procs = 56;
    hypernode = 32;  (* ALLCACHE Ring:0 connects 32 processors *)
    cache = Lf_cache.Cache.ksr2_cache;
    tlb = Some { Lf_cache.Cache.capacity = 64 * 4096; line = 4096; assoc = 64 };
    cost =
      {
        op = 3.0;
        hit = 1.0;
        miss_local = 18.0;
        miss_remote = 120.0;
        barrier_base = 200.0;
        barrier_per_proc = 30.0;
        loop_overhead = 12.0;
        iter_overhead = 1.0;
        tlb_miss = 25.0;
      };
  }

(* Convex SPP-1000: 100 MHz PA-RISC processors, 1 MB direct-mapped
   caches, 16 processors in two hypernodes of 8.  The fast clock makes
   misses relatively expensive, so locality enhancement pays more
   (the paper's >=30% kernel improvements). *)
let convex =
  {
    mname = "Convex SPP-1000";
    max_procs = 16;
    hypernode = 8;
    cache = Lf_cache.Cache.convex_cache;
    tlb = Some { Lf_cache.Cache.capacity = 120 * 4096; line = 4096; assoc = 120 };
    cost =
      {
        op = 1.0;
        hit = 1.0;
        miss_local = 60.0;
        miss_remote = 140.0;
        barrier_base = 400.0;
        barrier_per_proc = 50.0;
        loop_overhead = 8.0;
        iter_overhead = 0.5;
        tlb_miss = 30.0;
      };
  }

let pp ppf m =
  Fmt.pf ppf "%s: <=%d procs, %d KB %d-way caches" m.mname m.max_procs
    (m.cache.capacity / 1024) m.cache.assoc
