(* Execution-driven simulation: runs a [Schedule.t] on a [Machine.config]
   with one cache per processor and a memory layout mapping array
   elements to addresses.  Produces the performance observables the
   paper reports: cycle counts and cache misses.  Values are never
   interpreted here; the reference interpreter and [Schedule.execute]
   own the semantics.

   The engine is split into three layers so the host can parallelise
   the simulation without changing a single observable:

   - {b stream generation}: each nest's references are compiled once
     per run to subscript rows bound to the layout, and each simulated
     processor's boxes are walked to emit its address stream (access
     by access in [Miss_only] mode, each innermost row's addresses
     located once and advanced by their byte strides; line-granular
     runs in [Run_compressed] mode);
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
   what makes both engine modes bit-identical by construction: a mode
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
}

type mode = Sim.mode = Miss_only | Run_compressed

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
(* Recycled cache instances                                            *)

(* The cache and TLB instances of this domain's last run, with their
   geometries.  A Convex cache is a 16 384-word tag array, allocated
   straight into the major heap, so building fresh instances for every
   run costs about one major collection per run.  A run takes the whole
   list with one [Atomic.exchange], so two systhreads of one domain
   never hold the same instance; it stores its own instances back only
   once it has read its result out of them, and a run that raises
   drops them.  At most one run's instances are kept per domain. *)
let spare_caches : (Cache.geometry * Cache.t) list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

(* An instance of geometry [g]: the first one of [!spare] with exactly
   that geometry, removed from it and reset to the state of a fresh
   one, else a fresh one. *)
let recycle spare g =
  match List.assoc_opt g !spare with
  | Some c ->
    spare := List.remove_assoc g !spare;
    Cache.reset c;
    c
  | None -> Cache.of_geometry g

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
(* Statement compilation: each reference becomes its subscripts as
   coefficient rows over the nest's loop variables, bound to the
   array's placement in the layout.                                    *)

type cref = {
  aid : int;  (* array id: index into the program's decl list *)
  aname : string;  (* for out-of-bounds messages *)
  lext : int array;  (* logical extents, for the bounds check *)
  aext : int array;  (* addressing extents (padding included) *)
  start : int;  (* byte address of element 0 *)
  elem_bytes : int;
  coeffs : int array array;  (* per array dim, per loop level *)
  consts : int array;  (* per array dim *)
  istride : int;  (* byte-address delta per innermost-variable step *)
}

let aid_of (decls : Ir.decl array) name =
  let rec go i =
    if i >= Array.length decls then
      invalid_arg ("Exec.run_opts: undeclared array " ^ name)
    else if String.equal decls.(i).Ir.aname name then i
    else go (i + 1)
  in
  go 0

let compile_ref (layout : Partition.layout) decls vars (r : Ir.aref) =
  let aid = aid_of decls r.Ir.array in
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
    aid;
    aname = r.Ir.array;
    lext = Array.of_list decls.(aid).Ir.extents;
    aext = p.aextents;
    start = p.start;
    elem_bytes = layout.elem_bytes;
    coeffs;
    consts;
    istride;
  }

(* Evaluate subscripts to a byte address, raising the interpreter's
   [Out_of_bounds] (same text) on a subscript outside the logical
   extents, so every mode fails identically on a bad schedule. *)
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

(* Bounds predicate of [locate_addr] at [vals], without raising: the run
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

let all_in_bounds (refs : cref array) vals =
  let j = ref 0 in
  while !j < Array.length refs && ref_in_bounds refs.(!j) vals do
    incr j
  done;
  !j = Array.length refs

type cstmt = {
  cguard : (int * int * int) array;  (* (level index, lo, hi) *)
  (* [cguard] split for the run-compressed row replay: the conjuncts on
     outer levels, and the interval the innermost-level ones allow *)
  couter : (int * int * int) array;
  cilo : int;
  cihi : int;
  ctrace : cref array;
      (* address stream of one instance: rhs reads in evaluation order,
         then the lhs write *)
}

let compile_stmts layout decls (n : Ir.nest) =
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
  let iv = Array.length vars - 1 in
  Array.of_list
    (List.map
       (fun (s : Ir.stmt) ->
         let guard =
           List.map (fun (v, lo, hi) -> (var_index v, lo, hi)) s.guard
         in
         let inner, outer = List.partition (fun (v, _, _) -> v = iv) guard in
         {
           cguard = Array.of_list guard;
           couter = Array.of_list outer;
           cilo = List.fold_left (fun m (_, lo, _) -> max m lo) min_int inner;
           cihi = List.fold_left (fun m (_, _, hi) -> min m hi) max_int inner;
           ctrace =
             Array.of_list
               (List.map
                  (compile_ref layout decls vars)
                  (Ir.stmt_reads s @ [ s.lhs ]));
         })
       n.body)

(* A nest compiled once per run.  [crefs] concatenates the statements'
   address streams in body order, so statement [s] issues
   [crefs.(cfirst.(s)) .. crefs.(cfirst.(s + 1) - 1)]; [cstrides] holds
   each one's [istride] for the miss-only row replay. *)
type cnest = {
  cstmts : cstmt array;
  crefs : cref array;
  cstrides : int array;
  cfirst : int array;
}

let compile_nest layout decls n =
  let cstmts = compile_stmts layout decls n in
  let crefs =
    Array.concat (List.map (fun s -> s.ctrace) (Array.to_list cstmts))
  in
  let cfirst = Array.make (Array.length cstmts + 1) 0 in
  Array.iteri
    (fun s st -> cfirst.(s + 1) <- cfirst.(s) + Array.length st.ctrace)
    cstmts;
  { cstmts; crefs; cstrides = Array.map (fun r -> r.istride) crefs; cfirst }

(* A loop rather than a local recursive function: checking a guard
   allocates nothing. *)
let guard_holds g (vals : int array) =
  let i = ref 0 in
  while
    !i < Array.length g
    &&
    let v, lo, hi = g.(!i) in
    vals.(v) >= lo && vals.(v) <= hi
  do
    incr i
  done;
  !i = Array.length g

(* Replay the statement's address stream against the cache, locating
   every address from the subscripts.  Addresses are layout-dependent
   but value-independent, so the stream alone determines hits, misses
   and hence cycles. *)
let exec_cstmt_trace ctx vals s =
  if guard_holds s.cguard vals then begin
    let tr = s.ctrace in
    for k = 0 to Array.length tr - 1 do
      let cr = tr.(k) in
      access ctx cr.aid (locate_addr cr vals)
    done
  end

let exec_stmts_trace ctx vals (stmts : cstmt array) =
  for s = 0 to Array.length stmts - 1 do
    exec_cstmt_trace ctx vals stmts.(s)
  done

(* ------------------------------------------------------------------ *)
(* Run-compressed execution: line-granular address-stream batching     *)

(* [Run_compressed] replays each in-bounds innermost row as strided
   runs instead of iterating it.  The row is cut into {e segments} on
   which the active statement set is constant (guard intervals only
   open or close at their endpoints), each segment's references become
   (start, byte stride, count) triples, and segments advance in
   {e blocks} — the iterations before any reference crosses a
   cache-line boundary, within which every reference stays on one line
   and one page.  Inside a block the first iteration is simulated
   access-by-access; as soon as an iteration is proven steady its
   remainder is fast-forwarded in closed form (Cache.hit_run /
   Cache.repeat_run).  See DESIGN §6b for the exactness argument. *)

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

(* Iterations until some reference leaves its current aligned granule
   of [lmask + 1] bytes, capped at [left].  [run_segment] calls it with
   the TLB page mask to cut page blocks and with the cache line mask to
   cut each page block into line blocks; both sizes are powers of
   two. *)
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
   hit, so instead of probing (one way-index load per access, plus the
   call, clock and stamp updates) the caller just counts skipped
   iterations in [tlb_pending] and settles them with one closed-form
   [Cache.hit_run] when the page block ends.  Nothing but this segment
   touches the TLB in between, so the deferred batch reproduces the
   scalar access sequence exactly. *)
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

(* Run one segment of [n] iterations in lockstep, page block by page
   block and, inside each, cache block by cache block. *)
let run_segment ctx g n =
  let k = Array.length g.g_refs in
  let lmask = (Cache.config ctx.cache).Cache.line - 1 in
  let assoc1 = (Cache.config ctx.cache).Cache.assoc = 1 in
  let page_addrs = Array.make k 0 in
  let left = ref n in
  while !left > 0 do
    (* page block: no reference crosses a TLB page inside it *)
    let pb =
      match ctx.tlb with
      | None -> !left
      | Some t -> block_size g ((Cache.config t).Cache.line - 1) !left
    in
    Array.blit g.g_addrs 0 page_addrs 0 k;
    let tlb_steady = ref (Option.is_none ctx.tlb) in
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

(* Run_compressed's replay of one in-bounds innermost row [lo, hi]: the
   row is cut into maximal segments on which the set of active
   statements is constant (a guard's innermost-variable interval only
   opens or closes at its endpoints), and each runs in lockstep. *)
let run_row ctx (c : cnest) vals iv lo hi =
  (* the address streams of the statements whose outer-level conjuncts
     hold on this row, each with its innermost interval cut to the row *)
  let sel =
    Array.fold_right
      (fun (s : cstmt) acc ->
        let glo = max lo s.cilo and ghi = min hi s.cihi in
        if glo <= ghi && guard_holds s.couter vals then
          (s.ctrace, glo, ghi) :: acc
        else acc)
      c.cstmts []
  in
  let v = ref lo in
  while !v <= hi do
    let a = !v in
    (* next endpoint where some statement's interval opens or closes *)
    let e = ref (hi + 1) in
    List.iter
      (fun (_, glo, ghi) ->
        if a < glo then begin
          if glo < !e then e := glo
        end
        else if a <= ghi && ghi + 1 < !e then e := ghi + 1)
      sel;
    let active =
      List.filter_map
        (fun (tr, glo, ghi) -> if a >= glo && a <= ghi then Some tr else None)
        sel
    in
    if active <> [] then begin
      vals.(iv) <- a;
      run_segment ctx (make_seg (Array.concat active) vals) (!e - a)
    end;
    v := !e
  done

(* Issue the references [j0, j1) of [c.crefs] at their current
   addresses, each to the cache and then to the TLB.  The dispatch on
   the probe and the TLB is made once per statement instance, not once
   per access. *)
let issue ctx (c : cnest) addrs j0 j1 =
  match (ctx.probe, ctx.tlb) with
  | None, None ->
    for j = j0 to j1 - 1 do
      ignore (Cache.access ctx.cache addrs.(j))
    done
  | None, Some t ->
    for j = j0 to j1 - 1 do
      let a = addrs.(j) in
      ignore (Cache.access ctx.cache a);
      ignore (Cache.access t a)
    done
  | Some _, _ ->
    for j = j0 to j1 - 1 do
      access ctx c.crefs.(j).aid addrs.(j)
    done

(* Miss_only's replay of one in-bounds innermost row [lo, hi].  Each
   reference's address is located once, at [lo], and advanced by its
   innermost byte stride per point; guards are still tested point by
   point, and the accesses go out in the per-point walk's order. *)
let replay_row ctx (c : cnest) vals iv lo hi =
  let stmts = c.cstmts and first = c.cfirst and strides = c.cstrides in
  vals.(iv) <- lo;
  let addrs = Array.map (fun cr -> locate_addr cr vals) c.crefs in
  let k = Array.length addrs in
  for w = lo to hi do
    vals.(iv) <- w;
    for s = 0 to Array.length stmts - 1 do
      if guard_holds stmts.(s).cguard vals then
        issue ctx c addrs first.(s) first.(s + 1)
    done;
    for j = 0 to k - 1 do
      addrs.(j) <- addrs.(j) + strides.(j)
    done
  done

(* The walk of one box, shared by both tiers: the outer levels point by
   point, each innermost row by the tier's [row] replay when every
   reference of the nest is in bounds at both ends of the row.
   Subscripts are affine in the innermost variable, so they are then in
   bounds all along it.  Other rows (a bad schedule's, or one where only
   a guard keeps a reference inside its array) and 0-d boxes take the
   raising per-point walk, so a bad schedule fails at the same access
   with the same message in either tier. *)
let walk_box row ctx (c : cnest) vals (b : Schedule.box) =
  let nd = Array.length vals in
  if nd = 0 then exec_stmts_trace ctx vals c.cstmts
  else begin
    let iv = nd - 1 in
    let lo, hi = b.Schedule.ranges.(iv) in
    let rec go d =
      if d = iv then begin
        vals.(iv) <- hi;
        let ok = all_in_bounds c.crefs vals in
        vals.(iv) <- lo;
        if ok && all_in_bounds c.crefs vals then row ctx c vals iv lo hi
        else
          for w = lo to hi do
            vals.(iv) <- w;
            exec_stmts_trace ctx vals c.cstmts
          done
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
  end

(* ------------------------------------------------------------------ *)
(* Running a schedule                                                  *)

let exec_box row compiled nest_arity ctx (b : Schedule.box) =
  let c : cnest = compiled.(b.Schedule.nest) in
  let vals = Array.make nest_arity.(b.Schedule.nest) 0 in
  let t0 = match ctx.probe with None -> 0.0 | Some _ -> ctx_cycles ctx in
  ctx.boxes <- ctx.boxes + 1;
  let iters = Schedule.box_iterations b in
  ctx.iters <- ctx.iters + iters;
  ctx.ops <- ctx.ops + (iters * Array.length c.cstmts);
  walk_box row ctx c vals b;
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
  let decls = Array.of_list prog.Ir.decls in
  let compiled =
    Array.of_list (List.map (compile_nest layout decls) prog.Ir.nests)
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
  let spare_cell = Domain.DLS.get spare_caches in
  let spare = ref (Atomic.exchange spare_cell []) in
  let used = ref [] in
  let instance shape =
    let g = Cache.geometry ~footprint shape in
    let c = recycle spare g in
    used := (g, c) :: !used;
    c
  in
  let ctxs =
    Array.init nprocs (fun proc ->
        {
          cache = instance m.cache;
          tlb = Option.map instance m.Machine.tlb;
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
    exec_box
      (match mode with Miss_only -> replay_row | Run_compressed -> run_row)
      compiled nest_arity
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
  (* the result is read out: nothing touches this run's caches after
     another run on this domain can take them *)
  Atomic.set spare_cell !used;
  {
    cycles;
    phase_cycles;
    barrier_cycles;
    total_refs;
    total_misses;
    cold_misses;
    tlb_misses;
    proc_misses;
  }

(* Attribution tables from a sink recorded by [run_opts]. *)
let breakdown sink ~by = Obs.breakdown sink ~by

let speedup ~baseline_cycles (r : result) = baseline_cycles /. r.cycles
