(* Execution-driven simulation: runs a [Schedule.t] on a [Machine.config]
   with one cache per processor and a memory layout mapping array
   elements to addresses.  Produces both the semantic result (the store,
   for verification against the reference interpreter) and the
   performance observables the paper reports: cycle counts and cache
   misses.

   The engine is split into three layers so the host can parallelise
   the simulation without changing a single observable:

   - {b stream generation}: each simulated processor's boxes are
     compiled to closures that walk the iteration space and emit the
     per-processor address stream (interpreting values in [Full] mode,
     only the addresses in [Miss_only] mode, and line-granular runs in
     [Run_compressed] mode);
   - {b cache replay}: the stream drives that processor's private
     [Lf_cache] instances — state owned by exactly one simulated
     processor, hence by exactly one host domain at a time;
   - {b reduction}: at each phase end the per-processor observables are
     folded {e in simulated-processor order} (max for time, sums in
     array order for misses), and probe-buffered events are merged in
     the same order.

   Because processors within a phase are independent by construction
   (the paper's phases are parallel loops; a legal schedule yields the
   same store under any processor interleaving, see Schedule.execute's
   order property) and all reductions are performed in a fixed order on
   the coordinating domain, the result is bit-identical for any [jobs]
   count, including the serial engine.

   {b Deferred cycle accounting.}  Cycles are never accumulated
   access-by-access.  Each context counts integer events (boxes,
   iterations, statement instances, plus the cache/TLB hit and miss
   counters the caches themselves maintain) and [ctx_cycles] converts
   the counts to cycles in one fixed closed-form expression.  This is
   what makes every engine mode bit-identical by construction: a mode
   that proves "these n accesses hit" and bumps the hit counter by n
   yields {e exactly} the float the scalar engine yields, because both
   evaluate the same expression on the same integers — there is no
   summation-order dependence to preserve.  (With per-access float
   accumulation, a non-dyadic miss penalty such as the Convex's
   60 + 140/3 would make closed-form batching differ in the last ulp.) *)

module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Partition = Lf_core.Partition
module Cache = Lf_cache.Cache
module Obs = Lf_obs.Obs
module Pool = Lf_parallel.Pool

type result = {
  cycles : float;  (* simulated execution time *)
  phase_cycles : float array;
  barrier_cycles : float;
  total_refs : int;
  total_misses : int;
  cold_misses : int;
  tlb_misses : int;
  proc_misses : int array;
  store : Interp.store;
}

type mode = Sim.mode = Full | Miss_only | Run_compressed

let proc0_misses r = r.proc_misses.(0)

(* ------------------------------------------------------------------ *)
(* Host parallelism: default job count and the shared domain pool      *)

(* The one parser of the jobs vocabulary, shared by LF_JOBS and the
   CLI's --jobs: a positive integer, or "auto"/"0" for the host's
   recommended domain count. *)
let jobs_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" | "0" -> Ok (Domain.recommended_domain_count ())
  | t -> (
    match int_of_string_opt t with
    | Some j when j >= 1 -> Ok j
    | Some _ | None ->
      Error (Printf.sprintf "%s: expected a positive integer or auto" s))

(* LF_JOBS environment default.  Unset or unparsable means serial here;
   the CLI rejects a malformed value before it runs anything. *)
let jobs_of_env () =
  match Sys.getenv_opt "LF_JOBS" with
  | None -> 1
  | Some s -> Result.value (jobs_of_string s) ~default:1

let default_jobs_ref = ref None

let default_jobs () =
  match !default_jobs_ref with
  | Some j -> j
  | None ->
    let j = jobs_of_env () in
    default_jobs_ref := Some j;
    j

let set_default_jobs j =
  if j < 1 then invalid_arg "Exec.set_default_jobs: jobs < 1";
  default_jobs_ref := Some j

(* One shared pool, sized on demand and reused across runs (phases,
   steps, tuner candidates, bench experiments) instead of spawning
   domains per invocation.  Accessed only from the coordinating domain;
   shut down at exit so the process can terminate cleanly. *)
let shared_pool : (int * Pool.t) option ref = ref None
let shared_pool_at_exit = ref false

let release_shared_pool () =
  match !shared_pool with
  | None -> ()
  | Some (_, p) ->
    shared_pool := None;
    Pool.shutdown p

let shared_pool_of ~jobs =
  match !shared_pool with
  | Some (n, p) when n = jobs -> p
  | _ ->
    release_shared_pool ();
    let p = Pool.create jobs in
    shared_pool := Some (jobs, p);
    if not !shared_pool_at_exit then begin
      shared_pool_at_exit := true;
      at_exit release_shared_pool
    end;
    p

(* ------------------------------------------------------------------ *)
(* Per-processor execution context                                     *)

type ctx = {
  cache : Cache.t;
  tlb : Cache.t option;
  (* integer event counts of the current phase; cycles materialise only
     through [ctx_cycles] *)
  mutable boxes : int;
  mutable iters : int;  (* innermost iteration points *)
  mutable ops : int;  (* statement instances (guard-independent) *)
  (* phase-start snapshots of the cumulative cache counters *)
  mutable h0 : int;
  mutable m0 : int;
  mutable tm0 : int;
  op_cost : float;
  hit_cost : float;
  miss_cost : float;
  loop_cost : float;
  iter_cost : float;
  tlb_miss_cost : float;
  probe : Obs.probe option;  (* attribution probe; None = uninstrumented *)
}

(* The one place event counts become cycles.  Every mode and every
   [jobs] value evaluates exactly this expression on exactly these
   integers, so cycle observables cannot depend on engine or schedule
   of accumulation. *)
let ctx_cycles ctx =
  let tlbm =
    match ctx.tlb with None -> 0 | Some t -> Cache.miss_count t - ctx.tm0
  in
  (float_of_int ctx.ops *. ctx.op_cost)
  +. (float_of_int (Cache.hit_count ctx.cache - ctx.h0) *. ctx.hit_cost)
  +. (float_of_int (Cache.miss_count ctx.cache - ctx.m0) *. ctx.miss_cost)
  +. (float_of_int ctx.boxes *. ctx.loop_cost)
  +. (float_of_int ctx.iters *. ctx.iter_cost)
  +. (float_of_int tlbm *. ctx.tlb_miss_cost)

let phase_reset ctx =
  ctx.boxes <- 0;
  ctx.iters <- 0;
  ctx.ops <- 0;
  ctx.h0 <- Cache.hit_count ctx.cache;
  ctx.m0 <- Cache.miss_count ctx.cache;
  ctx.tm0 <- (match ctx.tlb with None -> 0 | Some t -> Cache.miss_count t)

(* The two arms must stay behaviourally identical: same cache/TLB state
   transitions.  The only difference the probe arm is allowed is
   pushing counts into the sink (the observer-effect property in
   test/test_obs.ml holds us to it). *)
let access ctx aid addr =
  match ctx.probe with
  | None ->
    ignore (Cache.access ctx.cache addr);
    (match ctx.tlb with
    | None -> ()
    | Some t -> ignore (Cache.access t addr))
  | Some p ->
    let cl = Cache.access_classified ctx.cache addr in
    ignore
      (Obs.record_access p ~aid ~line:cl.Cache.cl_line ~hit:cl.Cache.cl_hit
         ~cold:cl.Cache.cl_cold ~evicted:cl.Cache.cl_evicted);
    (match ctx.tlb with
    | None -> ()
    | Some t -> if not (Cache.access t addr) then Obs.record_tlb_miss p ~aid)

(* ------------------------------------------------------------------ *)
(* Statement compilation: each statement becomes a closure over the
   value arrays and the layout, taking (ctx, iteration values).        *)

type cref = {
  aid : int;  (* array id: index into the program's decl list *)
  aname : string;  (* for out-of-bounds messages *)
  values : float array;  (* empty outside Full mode *)
  lext : int array;  (* logical extents, for the value index *)
  aext : int array;  (* addressing extents (padding included) *)
  start : int;  (* byte address of element 0 *)
  elem_bytes : int;
  coeffs : int array array;  (* per array dim, per loop level *)
  consts : int array;  (* per array dim *)
  istride : int;  (* byte-address delta per innermost-variable step *)
}

(* [lookup name] yields the value array and logical extents of [name];
   outside Full mode the value array is empty (never dereferenced). *)
let compile_ref lookup (layout : Partition.layout) aid_of vars (r : Ir.aref) =
  let values, lext = lookup r.Ir.array in
  let p = Partition.find_placement layout r.array in
  let nvars = Array.length vars in
  let coeffs =
    Array.of_list
      (List.map
         (fun (a : Ir.affine) ->
           let row = Array.make nvars 0 in
           List.iter
             (fun (c, x) ->
               let rec idx i =
                 if i >= nvars then
                   invalid_arg ("Exec.compile_ref: unbound variable " ^ x)
                 else if String.equal vars.(i) x then i
                 else idx (i + 1)
               in
               let i = idx 0 in
               row.(i) <- row.(i) + c)
             a.terms;
           row)
         r.index)
  in
  let consts =
    Array.of_list (List.map (fun (a : Ir.affine) -> a.const) r.index)
  in
  let ndim = Array.length consts in
  (* byte stride of one innermost-variable step: the row-major suffix
     products of the {e addressing} extents weight each dimension's
     innermost coefficient *)
  let istride =
    if nvars = 0 then 0
    else begin
      let suffix = ref 1 and s = ref 0 in
      for d = ndim - 1 downto 0 do
        s := !s + (coeffs.(d).(nvars - 1) * !suffix);
        suffix := !suffix * p.aextents.(d)
      done;
      !s * layout.elem_bytes
    end
  in
  {
    aid = aid_of r.Ir.array;
    aname = r.Ir.array;
    values;
    lext;
    aext = p.aextents;
    start = p.start;
    elem_bytes = layout.elem_bytes;
    coeffs;
    consts;
    istride;
  }

(* Evaluate subscripts, returning (value index, byte address). *)
let locate cr (vals : int array) =
  let ndim = Array.length cr.consts in
  let vidx = ref 0 and aidx = ref 0 in
  for d = 0 to ndim - 1 do
    let row = cr.coeffs.(d) in
    let v = ref cr.consts.(d) in
    for i = 0 to Array.length row - 1 do
      if row.(i) <> 0 then v := !v + (row.(i) * vals.(i))
    done;
    let v = !v in
    if v < 0 || v >= cr.lext.(d) then
      raise
        (Interp.out_of_bounds ~array:cr.aname ~dim:d ~index:v
           ~extent:cr.lext.(d));
    vidx := (!vidx * cr.lext.(d)) + v;
    aidx := (!aidx * cr.aext.(d)) + v
  done;
  (!vidx, cr.start + (!aidx * cr.elem_bytes))

(* [locate] without the value index: address-stream replay needs only
   the byte address.  Bounds checks (and their exception text) are kept
   identical so the modes fail identically on a bad schedule. *)
let locate_addr cr (vals : int array) =
  let ndim = Array.length cr.consts in
  let aidx = ref 0 in
  for d = 0 to ndim - 1 do
    let row = cr.coeffs.(d) in
    let v = ref cr.consts.(d) in
    for i = 0 to Array.length row - 1 do
      if row.(i) <> 0 then v := !v + (row.(i) * vals.(i))
    done;
    let v = !v in
    if v < 0 || v >= cr.lext.(d) then
      raise
        (Interp.out_of_bounds ~array:cr.aname ~dim:d ~index:v
           ~extent:cr.lext.(d));
    aidx := (!aidx * cr.aext.(d)) + v
  done;
  cr.start + (!aidx * cr.elem_bytes)

(* Bounds predicate of [locate] at [vals], without raising: the run
   engine prechecks segment endpoints with this (subscripts are affine,
   hence monotone, in the sweep variable — endpoint validity implies
   interior validity) and falls back to the raising scalar walk when it
   fails, so out-of-bounds schedules die at the identical iteration
   with the identical message. *)
let ref_in_bounds cr (vals : int array) =
  let ndim = Array.length cr.consts in
  let ok = ref true in
  for d = 0 to ndim - 1 do
    let row = cr.coeffs.(d) in
    let v = ref cr.consts.(d) in
    for i = 0 to Array.length row - 1 do
      if row.(i) <> 0 then v := !v + (row.(i) * vals.(i))
    done;
    if !v < 0 || !v >= cr.lext.(d) then ok := false
  done;
  !ok

type cexpr =
  | CConst of float
  | CRead of cref
  | CNeg of cexpr
  | CBin of Ir.binop * cexpr * cexpr

let rec compile_expr lookup layout aid_of vars (e : Ir.expr) =
  match e with
  | Const k -> CConst k
  | Read r -> CRead (compile_ref lookup layout aid_of vars r)
  | Neg e -> CNeg (compile_expr lookup layout aid_of vars e)
  | Bin (op, a, b) ->
    CBin
      ( op,
        compile_expr lookup layout aid_of vars a,
        compile_expr lookup layout aid_of vars b )

let rec eval_cexpr ctx vals = function
  | CConst k -> k
  | CRead cr ->
    let vidx, addr = locate cr vals in
    access ctx cr.aid addr;
    cr.values.(vidx)
  | CNeg e -> -.eval_cexpr ctx vals e
  | CBin (op, a, b) -> (
    let x = eval_cexpr ctx vals a in
    let y = eval_cexpr ctx vals b in
    match op with
    | Add -> x +. y
    | Sub -> x -. y
    | Mul -> x *. y
    | Div -> x /. y)

(* Reads of a compiled expression in evaluation order (the DFS order
   [eval_cexpr] visits them): the address stream of the statement's
   right-hand side.  Replay modes issue exactly this sequence. *)
let rec refs_of_cexpr acc = function
  | CConst _ -> acc
  | CRead cr -> cr :: acc
  | CNeg e -> refs_of_cexpr acc e
  | CBin (_, a, b) -> refs_of_cexpr (refs_of_cexpr acc a) b

type cstmt = {
  clhs : cref;
  crhs : cexpr;
  cguard : (int * int * int) array;  (* (level index, lo, hi) *)
  ctrace : cref array;
      (* address stream of one instance: rhs reads in evaluation order,
         then the lhs write — the order [exec_cstmt] issues accesses *)
}

let compile_nest lookup layout aid_of (n : Ir.nest) =
  let vars = Array.of_list (Ir.nest_vars n) in
  let var_index x =
    let rec go i =
      if i >= Array.length vars then
        invalid_arg ("Exec.compile_nest: unbound guard variable " ^ x)
      else if String.equal vars.(i) x then i
      else go (i + 1)
    in
    go 0
  in
  Array.of_list
    (List.map
       (fun (s : Ir.stmt) ->
         let clhs = compile_ref lookup layout aid_of vars s.lhs in
         let crhs = compile_expr lookup layout aid_of vars s.rhs in
         {
           clhs;
           crhs;
           cguard =
             Array.of_list
               (List.map (fun (v, lo, hi) -> (var_index v, lo, hi)) s.guard);
           ctrace =
             Array.of_list (List.rev (clhs :: refs_of_cexpr [] crhs));
         })
       n.body)

let guard_holds g (vals : int array) =
  let n = Array.length g in
  let rec go i =
    if i = n then true
    else
      let v, lo, hi = g.(i) in
      vals.(v) >= lo && vals.(v) <= hi && go (i + 1)
  in
  go 0

let exec_cstmt ctx vals s =
  if guard_holds s.cguard vals then begin
    let v = eval_cexpr ctx vals s.crhs in
    let vidx, addr = locate s.clhs vals in
    access ctx s.clhs.aid addr;
    s.clhs.values.(vidx) <- v
  end

(* Miss_only: replay the statement's address stream against the cache,
   skipping value interpretation.  Addresses are layout-dependent but
   value-independent, so hits/misses and hence cycles are identical to
   [exec_cstmt]'s. *)
let exec_cstmt_trace ctx vals s =
  if guard_holds s.cguard vals then begin
    let tr = s.ctrace in
    for k = 0 to Array.length tr - 1 do
      let cr = tr.(k) in
      access ctx cr.aid (locate_addr cr vals)
    done
  end

let exec_stmts_full ctx vals (stmts : cstmt array) =
  for s = 0 to Array.length stmts - 1 do
    exec_cstmt ctx vals stmts.(s)
  done

let exec_stmts_trace ctx vals (stmts : cstmt array) =
  for s = 0 to Array.length stmts - 1 do
    exec_cstmt_trace ctx vals stmts.(s)
  done

(* ------------------------------------------------------------------ *)
(* Run-compressed execution: line-granular address-stream batching     *)

(* [Run_compressed] walks boxes like the trace engine but treats the
   innermost loop as strided runs instead of iterating it.  The sweep
   is cut into {e segments} on which the active statement set is
   constant (guard intervals only open or close at their endpoints),
   each segment's references become (start, byte stride, count)
   triples, and segments advance in {e blocks} — the iterations before
   any reference crosses a cache-line boundary, within which every
   reference stays on one line and one page.  Inside a block the first
   iteration is simulated access-by-access; as soon as an iteration is
   proven steady its remainder is fast-forwarded in closed form
   (Cache.hit_run / Cache.repeat_run).  See DESIGN §6b for the
   exactness argument. *)

(* One segment's references, flattened across its active statements in
   execution order (per statement: rhs reads in evaluation order, then
   the lhs write), so the lockstep walk below issues the exact global
   access order of the scalar engine. *)
type seg = {
  g_refs : cref array;
  g_addrs : int array;  (* current byte address per reference *)
  g_strides : int array;
  g_hits : bool array;  (* cache outcome of the last scalar iteration *)
  g_cross : bool array;  (* cross attribution of that iteration's misses *)
}

let make_seg refs vals =
  let k = Array.length refs in
  {
    g_refs = refs;
    g_addrs = Array.init k (fun j -> locate_addr refs.(j) vals);
    g_strides = Array.map (fun r -> r.istride) refs;
    g_hits = Array.make k false;
    g_cross = Array.make k false;
  }

(* Iterations until some reference leaves its current line (or page:
   [lmask] is min(cache line, TLB line) - 1 and both are powers of two,
   so staying inside the smaller granule implies staying inside both),
   capped at [left]. *)
let block_size g lmask left =
  let b = ref left in
  let k = Array.length g.g_refs in
  for j = 0 to k - 1 do
    let s = g.g_strides.(j) in
    if s <> 0 then begin
      let off = g.g_addrs.(j) land lmask in
      let c = if s > 0 then 1 + ((lmask - off) / s) else 1 + (off / -s) in
      if c < !b then b := c
    end
  done;
  !b

(* One lockstep iteration of the segment, access by access; fills
   [g_hits]/[g_cross] and returns whether every cache access hit.

   The TLB is handled lazily: while [tlb_steady] is false each access
   probes it scalar (recording misses), and the iteration that comes
   back all-hit sets the flag — from then on the segment's pages are
   resident and every further access in the page block is a provable
   hit, so instead of probing (an O(assoc) way scan at TLB
   associativities of 64+) the caller just counts skipped iterations in
   [tlb_pending] and settles them with one closed-form [Cache.hit_run]
   when the page block ends.  Nothing but this segment touches the TLB
   in between, so the deferred batch reproduces the scalar access
   sequence exactly. *)
let scalar_iter ctx g ~tlb_steady ~tlb_pending =
  let k = Array.length g.g_refs in
  let allhit = ref true in
  let probe_tlb = not !tlb_steady in
  let tlb_allhit = ref true in
  for j = 0 to k - 1 do
    let addr = g.g_addrs.(j) in
    let aid = g.g_refs.(j).aid in
    let h =
      match ctx.probe with
      | None -> Cache.access ctx.cache addr
      | Some p ->
        let cl = Cache.access_classified ctx.cache addr in
        g.g_cross.(j) <-
          Obs.record_access p ~aid ~line:cl.Cache.cl_line ~hit:cl.Cache.cl_hit
            ~cold:cl.Cache.cl_cold ~evicted:cl.Cache.cl_evicted;
        cl.Cache.cl_hit
    in
    g.g_hits.(j) <- h;
    if not h then allhit := false;
    (if probe_tlb then
       match ctx.tlb with
       | None -> ()
       | Some t ->
         if not (Cache.access t addr) then begin
           tlb_allhit := false;
           match ctx.probe with
           | None -> ()
           | Some p -> Obs.record_tlb_miss p ~aid
         end);
    g.g_addrs.(j) <- addr + g.g_strides.(j)
  done;
  if probe_tlb then begin
    if !tlb_allhit then tlb_steady := true
  end
  else incr tlb_pending;
  !allhit

let advance g m =
  let k = Array.length g.g_refs in
  for j = 0 to k - 1 do
    g.g_addrs.(j) <- g.g_addrs.(j) + (g.g_strides.(j) * m)
  done

(* Fast-forward [m] provably-hitting iterations: after an all-hit
   iteration the segment's lines are all resident, further iterations
   touch only those lines, and hits evict nothing — so the remainder of
   the block is hits.  (Only called once the TLB is steady; its skipped
   accesses are settled by the caller's page-block flush.) *)
let ff_hits ctx g m =
  let k = Array.length g.g_refs in
  Cache.hit_run ctx.cache ~addrs:g.g_addrs ~k ~m;
  (match ctx.probe with
  | None -> ()
  | Some p ->
    for j = 0 to k - 1 do
      Obs.record_hit_run p ~aid:g.g_refs.(j).aid ~n:m
    done);
  advance g m

(* Fast-forward [m] iterations of a direct-mapped steady state: with
   one way per set, a full iteration over the block's fixed (set, line)
   pairs leaves each touched set holding the last line mapped to it —
   independent of the state it started from — so once one in-block
   iteration has run from that fixed point, outcomes (and cross/self
   attribution, whose evictions also repeat verbatim) are identical for
   the rest of the block. *)
let ff_repeat ctx g m =
  let k = Array.length g.g_refs in
  Cache.repeat_run ctx.cache ~addrs:g.g_addrs ~hits:g.g_hits ~k ~m;
  (match ctx.probe with
  | None -> ()
  | Some p ->
    for j = 0 to k - 1 do
      if g.g_hits.(j) then Obs.record_hit_run p ~aid:g.g_refs.(j).aid ~n:m
      else
        Obs.record_miss_run p ~aid:g.g_refs.(j).aid ~cross:g.g_cross.(j) ~n:m
    done);
  advance g m

(* A single-reference segment needs no lockstep: the whole run feeds
   [Cache.access_run], which coalesces line (and, for the TLB, page)
   groups internally. *)
let run_single ctx (cr : cref) ~addr ~stride ~n =
  (match ctx.probe with
  | None -> Cache.access_run ctx.cache ~addr ~stride ~n
  | Some p ->
    Cache.access_run_classified ctx.cache ~addr ~stride ~n ~f:(fun cl trailing ->
        ignore
          (Obs.record_access p ~aid:cr.aid ~line:cl.Cache.cl_line
             ~hit:cl.Cache.cl_hit ~cold:cl.Cache.cl_cold
             ~evicted:cl.Cache.cl_evicted);
        if trailing > 0 then Obs.record_hit_run p ~aid:cr.aid ~n:trailing));
  match ctx.tlb with
  | None -> ()
  | Some t -> (
    match ctx.probe with
    | None -> Cache.access_run t ~addr ~stride ~n
    | Some p ->
      let m0 = Cache.miss_count t in
      Cache.access_run t ~addr ~stride ~n;
      (* attribute the batch's TLB misses one by one; all belong to the
         segment's only array *)
      for _ = 1 to Cache.miss_count t - m0 do
        Obs.record_tlb_miss p ~aid:cr.aid
      done)

let run_segment ctx lmask plmask assoc1 g n =
  if Array.length g.g_refs = 1 then
    run_single ctx g.g_refs.(0) ~addr:g.g_addrs.(0) ~stride:g.g_strides.(0) ~n
  else begin
    let k = Array.length g.g_refs in
    let has_tlb = Option.is_some ctx.tlb in
    let page_addrs = Array.make k 0 in
    let left = ref n in
    while !left > 0 do
      (* page block: no reference crosses a TLB page inside it *)
      let pb = if has_tlb then block_size g plmask !left else !left in
      Array.blit g.g_addrs 0 page_addrs 0 k;
      let tlb_steady = ref (not has_tlb) in
      let tlb_pending = ref 0 in
      let pleft = ref pb in
      while !pleft > 0 do
        (* cache block: no reference crosses a cache line inside it *)
        let bsz = block_size g lmask !pleft in
        (* scalar-simulate until the block remainder is provably steady *)
        let done_ = ref 0 in
        let stop = ref false in
        while not !stop && !done_ < bsz do
          let allhit = scalar_iter ctx g ~tlb_steady ~tlb_pending in
          incr done_;
          let m = bsz - !done_ in
          if m > 0 && !tlb_steady then
            if allhit then begin
              ff_hits ctx g m;
              tlb_pending := !tlb_pending + m;
              done_ := bsz;
              stop := true
            end
            else if assoc1 && !done_ >= 2 then begin
              (* the iteration just captured ran from the direct-mapped
                 fixed point (>= 1 full in-block iteration preceded it) *)
              ff_repeat ctx g m;
              tlb_pending := !tlb_pending + m;
              done_ := bsz;
              stop := true
            end
        done;
        pleft := !pleft - bsz
      done;
      (* settle the TLB accesses skipped since it went steady: all hits
         on the page block's resident pages *)
      (if !tlb_pending > 0 then
         match ctx.tlb with
         | None -> ()
         | Some t -> Cache.hit_run t ~addrs:page_addrs ~k ~m:!tlb_pending);
      left := !left - pb
    done
  end

(* Cut the innermost sweep [lo, hi] into maximal segments on which the
   set of inner-guard-active statements is constant, and run each.
   [sel] holds the sweep-active statements (outer guards hold) with
   their inner guard interval, pre-intersected with [lo, hi]. *)
let sweep_segments ctx lmask plmask assoc1 stmts
    (sel : (cstmt * int * int) list) vals iv lo hi =
  let v = ref lo in
  while !v <= hi do
    let a = !v in
    (* next endpoint where some statement's inner interval opens or
       closes, i.e. the active set changes *)
    let e = ref (hi + 1) in
    List.iter
      (fun (_, glo, ghi) ->
        if a < glo then begin
          if glo < !e then e := glo
        end
        else if a <= ghi && ghi + 1 < !e then e := ghi + 1)
      sel;
    let b = !e - 1 in
    let active =
      List.filter_map
        (fun (s, glo, ghi) -> if a >= glo && a <= ghi then Some s else None)
        sel
    in
    (match active with
    | [] -> ()
    | _ ->
      let refs =
        Array.concat (List.map (fun (s : cstmt) -> s.ctrace) active)
      in
      (* precheck subscript bounds at both endpoints (affine in the
         sweep variable, so endpoint validity covers the interior);
         on failure rerun this segment through the raising scalar walk
         so a bad schedule fails at the identical iteration *)
      vals.(iv) <- a;
      let ok = ref (Array.for_all (fun r -> ref_in_bounds r vals) refs) in
      if !ok && b > a then begin
        vals.(iv) <- b;
        ok := Array.for_all (fun r -> ref_in_bounds r vals) refs
      end;
      if not !ok then
        for w = a to b do
          vals.(iv) <- w;
          exec_stmts_trace ctx vals stmts
        done
      else begin
        vals.(iv) <- a;
        run_segment ctx lmask plmask assoc1 (make_seg refs vals) (b - a + 1)
      end);
    v := !e
  done

let exec_box_runs compiled nest_arity ctx (b : Schedule.box) =
  let stmts : cstmt array = compiled.(b.Schedule.nest) in
  let nd : int = nest_arity.(b.Schedule.nest) in
  let vals = Array.make nd 0 in
  let t0 = match ctx.probe with None -> 0.0 | Some _ -> ctx_cycles ctx in
  ctx.boxes <- ctx.boxes + 1;
  let iters = Schedule.box_iterations b in
  ctx.iters <- ctx.iters + iters;
  ctx.ops <- ctx.ops + (iters * Array.length stmts);
  (if nd = 0 then exec_stmts_trace ctx vals stmts
   else begin
     let iv = nd - 1 in
     let lo, hi = b.Schedule.ranges.(iv) in
     let lmask = (Cache.config ctx.cache).Cache.line - 1 in
     let plmask =
       match ctx.tlb with
       | None -> lmask
       | Some t -> (Cache.config t).Cache.line - 1
     in
     let assoc1 = (Cache.config ctx.cache).Cache.assoc = 1 in
     (* split each statement's guard: outer-variable conjuncts gate the
        whole sweep, innermost-variable conjuncts become an interval *)
     let split =
       Array.map
         (fun (s : cstmt) ->
           let outer = ref [] and glo = ref lo and ghi = ref hi in
           Array.iter
             (fun ((v, l, h) as gd) ->
               if v = iv then begin
                 if l > !glo then glo := l;
                 if h < !ghi then ghi := h
               end
               else outer := gd :: !outer)
             s.cguard;
           (s, Array.of_list (List.rev !outer), !glo, !ghi))
         stmts
     in
     let rec go d =
       if d = iv then begin
         let sel =
           Array.to_list split
           |> List.filter_map (fun (s, outer, glo, ghi) ->
                  if glo <= ghi && guard_holds outer vals then
                    Some (s, glo, ghi)
                  else None)
         in
         if sel <> [] then
           sweep_segments ctx lmask plmask assoc1 stmts sel vals iv lo hi
       end
       else begin
         let dlo, dhi = b.Schedule.ranges.(d) in
         for v = dlo to dhi do
           vals.(d) <- v;
           go (d + 1)
         done
       end
     in
     go 0
   end);
  match ctx.probe with
  | None -> ()
  | Some p ->
    Obs.box_span p ~nest:b.Schedule.nest ~iters ~t0 ~t1:(ctx_cycles ctx)

(* ------------------------------------------------------------------ *)
(* Running a schedule                                                  *)

let exec_box exec_stmts compiled nest_arity ctx (b : Schedule.box) =
  let stmts : cstmt array = compiled.(b.Schedule.nest) in
  let nd : int = nest_arity.(b.Schedule.nest) in
  let vals = Array.make nd 0 in
  let t0 = match ctx.probe with None -> 0.0 | Some _ -> ctx_cycles ctx in
  ctx.boxes <- ctx.boxes + 1;
  let iters = Schedule.box_iterations b in
  ctx.iters <- ctx.iters + iters;
  ctx.ops <- ctx.ops + (iters * Array.length stmts);
  let rec go d =
    if d = nd then exec_stmts ctx vals stmts
    else begin
      let lo, hi = b.Schedule.ranges.(d) in
      for v = lo to hi do
        vals.(d) <- v;
        go (d + 1)
      done
    end
  in
  go 0;
  match ctx.probe with
  | None -> ()
  | Some p ->
    Obs.box_span p ~nest:b.Schedule.nest ~iters ~t0 ~t1:(ctx_cycles ctx)

(* Host-side execution options as one value.  lf_machine sits below
   lf_batch, so this is the bottom half of the unified options story:
   exactly the knobs the engine guarantees are bit-identity-preserving
   (jobs/pool choose host domains, sink is passive observation).  The
   full policy record — engine tier, store policy, timeout — lives in
   Lf_batch.Run_opts, which lowers onto this one. *)
type opts = {
  o_jobs : int option;
  o_pool : Pool.t option;
  o_sink : Obs.sink option;
}

let default_opts = { o_jobs = None; o_pool = None; o_sink = None }
let opts ?jobs ?pool ?sink () = { o_jobs = jobs; o_pool = pool; o_sink = sink }

(* The engine proper, and its one entry point: everything above drives
   this function.  A request names the simulation; the options ride
   alongside because they are bit-identity-preserving. *)
let run_opts o (req : Sim.request) =
  let sched = Sim.schedule_of req in
  let layout = Sim.layout_of req in
  let m = req.Sim.machine and steps = req.Sim.steps and mode = req.Sim.mode in
  let sink = o.o_sink in
  let prog = sched.Schedule.prog in
  let nprocs = sched.Schedule.nprocs in
  (* Stream generation setup: the store and the name -> (values,
     extents) lookup the compiled statements close over.  The replay
     modes skip allocating and initialising the value arrays entirely;
     their results carry an empty store. *)
  let store, lookup =
    match mode with
    | Full ->
      let store = Interp.create prog in
      ( store,
        fun name -> (Interp.find_array store name, Interp.find_extents store name)
      )
    | Miss_only | Run_compressed ->
      let extents = Hashtbl.create 16 in
      List.iter
        (fun (d : Ir.decl) ->
          Hashtbl.replace extents d.Ir.aname (Array.of_list d.Ir.extents))
        prog.Ir.decls;
      let no_values = [||] in
      ( { Interp.arrays = Hashtbl.create 1; extents = Hashtbl.create 1 },
        fun name ->
          match Hashtbl.find_opt extents name with
          | Some e -> (no_values, e)
          | None -> invalid_arg ("Exec.run_opts: undeclared array " ^ name) )
  in
  let decls = Array.of_list prog.Ir.decls in
  let aid_of name =
    let rec go i =
      if i >= Array.length decls then
        invalid_arg ("Exec.run_opts: undeclared array " ^ name)
      else if String.equal decls.(i).Ir.aname name then i
      else go (i + 1)
    in
    go 0
  in
  let compiled =
    Array.of_list (List.map (compile_nest lookup layout aid_of) prog.Ir.nests)
  in
  let nest_arity =
    Array.of_list
      (List.map (fun (n : Ir.nest) -> List.length n.Ir.levels) prog.Ir.nests)
  in
  (match sink with
  | None -> ()
  | Some s ->
    Obs.attach s ~machine:m.Machine.mname ~nprocs
      ~arrays:(Array.map (fun (d : Ir.decl) -> d.Ir.aname) decls)
      ~labels:(Array.of_list (Schedule.phase_labels sched))
      ~remote_fraction:(Machine.remote_fraction m ~nprocs));
  let miss_cost = Machine.miss_penalty m ~nprocs in
  (* the simulated address space is dense in [0, layout.total_bytes):
     size the caches' cold-tracking bitsets to it *)
  let footprint = layout.Partition.total_bytes in
  let ctxs =
    Array.init nprocs (fun proc ->
        {
          cache = Cache.of_geometry (Cache.geometry ~footprint m.cache);
          tlb =
            Option.map
              (fun shape -> Cache.of_geometry (Cache.geometry ~footprint shape))
              m.Machine.tlb;
          boxes = 0;
          iters = 0;
          ops = 0;
          h0 = 0;
          m0 = 0;
          tm0 = 0;
          op_cost = m.cost.op;
          hit_cost = m.cost.hit;
          miss_cost;
          loop_cost = m.cost.loop_overhead;
          iter_cost = m.cost.iter_overhead;
          tlb_miss_cost = m.cost.tlb_miss;
          probe = Option.map (fun s -> Obs.probe s ~proc) sink;
        })
  in
  (* probes in simulated-processor order, for the phase-end merge *)
  let probes =
    match sink with
    | None -> [||]
    | Some _ -> Array.map (fun c -> Option.get c.probe) ctxs
  in
  let exec_one =
    match mode with
    | Full -> exec_box exec_stmts_full compiled nest_arity
    | Miss_only -> exec_box exec_stmts_trace compiled nest_arity
    | Run_compressed -> exec_box_runs compiled nest_arity
  in
  (* Cache replay across host domains: each simulated processor is
     claimed by exactly one domain per phase (self-scheduled, so the
     load imbalance of peeled tails costs at most one processor of idle
     time), and every reduction below happens after the join, on this
     domain, in simulated-processor order — bit-identical to serial. *)
  let jobs =
    max 1
      (min nprocs (match o.o_jobs with Some j -> j | None -> default_jobs ()))
  in
  let pool =
    match o.o_pool with
    | Some p -> if Pool.size p > 1 && nprocs > 1 then Some p else None
    | None -> if jobs > 1 then Some (shared_pool_of ~jobs) else None
  in
  let run_procs f =
    match pool with
    | None ->
      for proc = 0 to nprocs - 1 do
        f proc
      done
    | Some pool -> Pool.dynamic_for pool ~lo:0 ~hi:(nprocs - 1) f
  in
  let phases = Array.of_list sched.Schedule.phases in
  let nphases = Array.length phases in
  let phase_cycles = Array.make nphases 0.0 in
  let barrier_cost = Machine.barrier_cost m ~nprocs in
  for step = 1 to steps do
    Array.iteri
      (fun i ph ->
        (match sink with
        | None -> ()
        | Some s -> Obs.phase_begin s ~step ~phase:i);
        Array.iter phase_reset ctxs;
        run_procs (fun proc ->
            let ctx = ctxs.(proc) in
            (match ctx.probe with
            | None -> ()
            | Some p -> Obs.set_phase p ~step ~phase:i);
            List.iter (exec_one ctx) ph.(proc));
        (* deterministic reduction, simulated-processor order *)
        (match sink with
        | None -> ()
        | Some s -> Obs.flush_boxes s probes);
        let pcyc = Array.map ctx_cycles ctxs in
        let t = Array.fold_left Float.max 0.0 pcyc in
        phase_cycles.(i) <- phase_cycles.(i) +. t;
        match sink with
        | None -> ()
        | Some s ->
          Array.iteri
            (fun proc c -> Obs.proc_cycles s ~phase:i ~proc ~cycles:c)
            pcyc;
          Obs.phase_end s ~step ~phase:i ~cycles:t;
          (* mirror the aggregate barrier count below: one barrier after
             every phase except the very last of the run *)
          if not (step = steps && i = nphases - 1) then
            Obs.barrier s ~step ~after_phase:i ~cost:barrier_cost)
      phases
  done;
  (* one barrier after every phase except the very last of the run *)
  let nbarriers = max 0 ((Array.length phases * steps) - 1) in
  let barrier_cycles =
    float_of_int nbarriers *. Machine.barrier_cost m ~nprocs
  in
  let cycles = Array.fold_left ( +. ) barrier_cycles phase_cycles in
  let proc_misses =
    Array.map (fun c -> (Cache.stats c.cache).Cache.s_misses) ctxs
  in
  let total_misses = Array.fold_left ( + ) 0 proc_misses in
  let total_refs =
    Array.fold_left (fun acc c -> acc + Cache.references c.cache) 0 ctxs
  in
  let cold_misses =
    Array.fold_left
      (fun acc c -> acc + (Cache.stats c.cache).Cache.s_cold)
      0 ctxs
  in
  let tlb_misses =
    Array.fold_left
      (fun acc c ->
        acc
        + (match c.tlb with
          | None -> 0
          | Some t -> (Cache.stats t).Cache.s_misses))
      0 ctxs
  in
  {
    cycles;
    phase_cycles;
    barrier_cycles;
    total_refs;
    total_misses;
    cold_misses;
    tlb_misses;
    proc_misses;
    store;
  }

(* Attribution tables from a sink recorded by [run_opts]. *)
let breakdown sink ~by = Obs.breakdown sink ~by

let speedup ~baseline_cycles (r : result) = baseline_cycles /. r.cycles
