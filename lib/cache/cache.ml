(* Set-associative cache simulator with LRU replacement.

   Models the per-processor caches of the paper's two platforms: the
   KSR2 (256 KB, 2-way set-associative) and the Convex SPP-1000 (1 MB,
   direct-mapped).  Only the address stream matters; data are held by
   the interpreter.

   Two access tiers share one probe/victim core:

   - the scalar tier ([access], [access_classified]) consumes one byte
     address per call;
   - the run tier ([hit_run], [repeat_run]) fast-forwards [m] lockstep
     iterations over [k] addresses once the engine has proven them
     steady, updating counters, the clock and the LRU stamps (or, on a
     direct-mapped instance, the tags) in closed form to exactly the
     values the scalar loop would produce (see exec.ml / DESIGN §6b for
     the argument).

   Only instances with several ways per set keep LRU stamps: a
   direct-mapped set's one way is always its victim, so a stamp there
   would be written and never read.

   The workload footprint sizes two dense per-line structures over the
   line addresses [0, seen_lines): the cold-miss bitset of every
   instance, and, for instances with one set and several ways (both
   TLB presets), a line -> way index that makes the way probe one load
   instead of an O(assoc) scan.  Lines beyond the footprint, and
   instances built without one, fall back to a hash table and the scan
   respectively. *)

type config = { capacity : int; line : int; assoc : int }

let ksr2_cache = { capacity = 256 * 1024; line = 64; assoc = 2 }
let convex_cache = { capacity = 1024 * 1024; line = 64; assoc = 1 }

(* Fingerprint of the cache/TLB simulation (probe/victim policy, LRU
   clock, run-tier closed forms).  Every Sim.request exercises it; bump
   on any change to hit/miss classification.  No spaces. *)
let version = "lf-cache-1"

type t = {
  config : config;
  nsets : int;
  line_shift : int;  (* log2 line: addr lsr line_shift = line address *)
  set_mask : int;  (* nsets - 1 when nsets is a power of 2, else -1 *)
  tags : int array;  (* nsets * assoc, -1 = invalid *)
  stamps : int array;
      (* LRU stamps, parallel to tags; empty when direct-mapped, where
         the only way of a set is always the victim *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable cold_misses : int;
  (* Cold-miss tracking: line addresses ever referenced.  Simulated
     address spaces are dense [0, footprint), so a footprint-sized
     bitset answers most membership tests in one load; the hash table
     is kept only as a fallback for addresses beyond the declared
     footprint (sparse or unbounded spaces, footprint 0). *)
  seen_lines : int;  (* bitset covers line addresses [0, seen_lines) *)
  seen_bits : Bytes.t;
  seen : (int, unit) Hashtbl.t;  (* lines >= seen_lines *)
  (* Way index of one-set, multi-way instances: [way_of.(l)] is the way
     holding line [l], or -1, for [l] in [0, seen_lines).  Empty for
     every other instance; lines outside it are found by the scan. *)
  way_of : int array;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

(* All instance-construction knobs in one record: the hardware shape
   plus the workload footprint (create's former optional argument). *)
type geometry = { shape : config; footprint : int }

let geometry ?(footprint = 0) shape = { shape; footprint }
let ksr2_geometry ?footprint () = geometry ?footprint ksr2_cache
let convex_geometry ?footprint () = geometry ?footprint convex_cache

let of_geometry { shape = config; footprint } =
  if config.capacity <= 0 || config.line <= 0 || config.assoc <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  if not (is_pow2 config.line) then invalid_arg "Cache.create: line not a power of 2";
  if config.capacity mod (config.line * config.assoc) <> 0 then
    invalid_arg "Cache.create: capacity not divisible by line*assoc";
  let nsets = config.capacity / (config.line * config.assoc) in
  let seen_lines =
    if footprint <= 0 then 0
    else (footprint + config.line - 1) / config.line
  in
  {
    config;
    nsets;
    line_shift = log2 config.line;
    set_mask = (if is_pow2 nsets then nsets - 1 else -1);
    tags = Array.make (nsets * config.assoc) (-1);
    stamps =
      (if config.assoc = 1 then [||] else Array.make (nsets * config.assoc) 0);
    clock = 0;
    hits = 0;
    misses = 0;
    cold_misses = 0;
    seen_lines;
    seen_bits = Bytes.make ((seen_lines + 7) / 8) '\000';
    seen = Hashtbl.create 64;
    way_of =
      (if nsets = 1 && config.assoc > 1 then Array.make seen_lines (-1)
       else [||]);
  }

(* Compatibility wrapper over [of_geometry]. *)
let create ?footprint config = of_geometry (geometry ?footprint config)

let config t = t.config

(* Set index of a (non-negative) line address: a mask when the set
   count is a power of two — the common case for both machine presets —
   and a division otherwise.  Addresses in this simulator are byte
   offsets from 0, so the shift/mask forms agree exactly with the
   [/]/[mod] they replace. *)
let[@inline] set_of t line_addr =
  if t.set_mask >= 0 then line_addr land t.set_mask
  else line_addr mod t.nsets

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.cold_misses <- 0;
  Bytes.fill t.seen_bits 0 (Bytes.length t.seen_bits) '\000';
  Hashtbl.reset t.seen;
  Array.fill t.way_of 0 (Array.length t.way_of) (-1)

(* ------------------------------------------------------------------ *)
(* Shared probe/victim core.  Every access variant — scalar,
   classified, closed-form run — is built from these three, so their
   state transitions cannot drift apart.                               *)

(* Way holding [line_addr] in the set starting at [base], or -1: one
   load of the way index where it covers the line, else a scan.  The
   scan is a loop, not a local recursive function, so a probe allocates
   no closure. *)
let[@inline] find_way t base line_addr =
  if line_addr < Array.length t.way_of && 0 <= line_addr then
    Array.unsafe_get t.way_of line_addr
  else begin
    let assoc = t.config.assoc in
    let w = ref 0 in
    while !w < assoc && Array.unsafe_get t.tags (base + !w) <> line_addr do
      incr w
    done;
    if !w = assoc then -1 else !w
  end

(* Test-and-set of the ever-seen set; returns [true] when the line was
   already a member (i.e. the miss is not cold). *)
let[@inline] seen_mark t line_addr =
  if line_addr < t.seen_lines then begin
    let byte = line_addr lsr 3 in
    let bit = 1 lsl (line_addr land 7) in
    let b = Char.code (Bytes.unsafe_get t.seen_bits byte) in
    if b land bit <> 0 then true
    else begin
      Bytes.unsafe_set t.seen_bits byte (Char.unsafe_chr (b lor bit));
      false
    end
  end
  else if Hashtbl.mem t.seen line_addr then true
  else begin
    Hashtbl.replace t.seen line_addr ();
    false
  end

(* Record the recency of way [i] as [v]; a no-op on a direct-mapped
   instance, which keeps no stamps. *)
let[@inline] stamp t i v = if t.config.assoc > 1 then t.stamps.(i) <- v

(* LRU victim selection and fill; returns the displaced line address
   (-1 if the way was invalid).  Counter updates stay in the caller. *)
let[@inline] fill_victim t base line_addr =
  let victim = ref 0 in
  for w = 1 to t.config.assoc - 1 do
    if t.stamps.(base + w) < t.stamps.(base + !victim) then victim := w
  done;
  let evicted = t.tags.(base + !victim) in
  t.tags.(base + !victim) <- line_addr;
  stamp t (base + !victim) t.clock;
  let n = Array.length t.way_of in
  if n > 0 then begin
    if 0 <= evicted && evicted < n then t.way_of.(evicted) <- -1;
    if 0 <= line_addr && line_addr < n then t.way_of.(line_addr) <- !victim
  end;
  evicted

(* ------------------------------------------------------------------ *)
(* Scalar tier                                                         *)

(* Access the byte at [addr]; returns [true] on a hit. *)
let access t addr =
  let line_addr = addr lsr t.line_shift in
  let set = set_of t line_addr in
  let base = set * t.config.assoc in
  t.clock <- t.clock + 1;
  match find_way t base line_addr with
  | -1 ->
    t.misses <- t.misses + 1;
    if not (seen_mark t line_addr) then t.cold_misses <- t.cold_misses + 1;
    ignore (fill_victim t base line_addr);
    false
  | w ->
    t.hits <- t.hits + 1;
    stamp t (base + w) t.clock;
    true

type classified = {
  cl_hit : bool;
  cl_cold : bool;  (* meaningful only when [cl_hit = false] *)
  cl_line : int;  (* line address of the access *)
  cl_evicted : int;  (* line address displaced on a miss, -1 if none *)
}

(* Same state transitions as [access], but reporting what happened.
   Observability (Lf_obs) uses this path; [access] stays the fast path.
   Any behavioural divergence between the two is an observer effect —
   test/test_obs.ml checks for it. *)
let access_classified t addr =
  let line_addr = addr lsr t.line_shift in
  let set = set_of t line_addr in
  let base = set * t.config.assoc in
  t.clock <- t.clock + 1;
  match find_way t base line_addr with
  | -1 ->
    t.misses <- t.misses + 1;
    let cold = not (seen_mark t line_addr) in
    if cold then t.cold_misses <- t.cold_misses + 1;
    let evicted = fill_victim t base line_addr in
    { cl_hit = false; cl_cold = cold; cl_line = line_addr; cl_evicted = evicted }
  | w ->
    t.hits <- t.hits + 1;
    stamp t (base + w) t.clock;
    { cl_hit = true; cl_cold = false; cl_line = line_addr; cl_evicted = -1 }

(* ------------------------------------------------------------------ *)
(* Run tier: closed forms for lockstep iterations                      *)

(* [hit_run t ~addrs ~k ~m]: closed form for [m] lockstep iterations
   over the [k] resident lines of [addrs.(0..k-1)], all hitting — the
   fast-forward of the batched engine once an iteration leaves the
   cache state unchanged.  The scalar loop would advance the clock by
   [k*m], add [k*m] hits, and leave each line's stamp at the clock of
   its last access (position [j] of the final iteration); reproduced
   here exactly.  Precondition (checked): every line is resident. *)
let hit_run t ~addrs ~k ~m =
  if m > 0 && k > 0 then begin
    t.clock <- t.clock + (k * m);
    t.hits <- t.hits + (k * m);
    let last_iter = t.clock - k in
    for j = 0 to k - 1 do
      let line_addr = addrs.(j) lsr t.line_shift in
      let set = set_of t line_addr in
      let base = set * t.config.assoc in
      let w = find_way t base line_addr in
      if w < 0 then invalid_arg "Cache.hit_run: line not resident";
      stamp t (base + w) (last_iter + j + 1)
    done
  end

(* [repeat_run t ~addrs ~hits ~k ~m]: closed form for [m] lockstep
   iterations repeating the per-reference outcomes [hits] of the last
   simulated iteration.  Only valid for a direct-mapped cache: with one
   way per set, a full iteration over a fixed (set, line) sequence
   leaves each touched set holding the last line that mapped to it —
   independent of the state the iteration started from — so outcomes
   and transitions are identical from the second iteration of a block
   onward (DESIGN §6b).  The scalar loop would leave the tags in the
   same periodic state, add the same hit/miss counts per iteration
   (all misses non-cold: every line was referenced when the block was
   primed), and advance the clock by [k*m]; reproduced here
   exactly. *)
let repeat_run t ~addrs ~hits ~k ~m =
  if t.config.assoc <> 1 then invalid_arg "Cache.repeat_run: not direct-mapped";
  if m > 0 && k > 0 then begin
    let h = ref 0 in
    for j = 0 to k - 1 do
      if hits.(j) then incr h
    done;
    t.hits <- t.hits + (!h * m);
    t.misses <- t.misses + ((k - !h) * m);
    t.clock <- t.clock + (k * m);
    for j = 0 to k - 1 do
      let line_addr = addrs.(j) lsr t.line_shift in
      t.tags.(set_of t line_addr) <- line_addr
    done
  end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

type stats = {
  s_hits : int;
  s_misses : int;
  s_cold : int;
  s_conflict_capacity : int;  (* misses that are not cold *)
}

let stats t =
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_cold = t.cold_misses;
    s_conflict_capacity = t.misses - t.cold_misses;
  }

let hit_count t = t.hits
let miss_count t = t.misses
let references t = t.hits + t.misses

let miss_rate t =
  let r = references t in
  if r = 0 then 0.0 else float_of_int t.misses /. float_of_int r

let pp_stats ppf s =
  Fmt.pf ppf "hits %d, misses %d (cold %d, conflict/capacity %d)" s.s_hits
    s.s_misses s.s_cold s.s_conflict_capacity
