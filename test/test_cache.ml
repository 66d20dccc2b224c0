(* Tests for the cache simulator. *)

module Cache = Lf_cache.Cache

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let small = { Cache.capacity = 1024; line = 64; assoc = 1 }
let small2 = { Cache.capacity = 1024; line = 64; assoc = 2 }

let test_create_invalid () =
  List.iter
    (fun cfg ->
      match Cache.create cfg with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      { Cache.capacity = 0; line = 64; assoc = 1 };
      { Cache.capacity = 1024; line = 48; assoc = 1 };
      { Cache.capacity = 1000; line = 64; assoc = 1 };
    ]

let test_cold_miss_then_hit () =
  let c = Cache.create small in
  check bool "first access misses" false (Cache.access c 0);
  check bool "same line hits" true (Cache.access c 32);
  check bool "next line misses" false (Cache.access c 64);
  let s = Cache.stats c in
  check int "hits" 1 s.Cache.s_hits;
  check int "misses" 2 s.Cache.s_misses;
  check int "cold" 2 s.Cache.s_cold

let test_sequential_scan_misses () =
  (* scanning N bytes misses exactly N/line times *)
  let c = Cache.create small in
  let bytes = 8192 in
  for a = 0 to (bytes / 8) - 1 do
    ignore (Cache.access c (a * 8))
  done;
  let s = Cache.stats c in
  check int "one miss per line" (bytes / small.Cache.line) s.Cache.s_misses

let test_direct_mapped_conflict () =
  (* two addresses capacity apart conflict in a direct-mapped cache *)
  let c = Cache.create small in
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  check bool "0 evicted" false (Cache.access c 0);
  check bool "1024 evicted" false (Cache.access c 1024)

let test_assoc_absorbs_conflict () =
  (* same addresses coexist in a 2-way cache *)
  let c = Cache.create small2 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 512);
  (* span = 512 for 2-way 1024B *)
  check bool "0 still cached" true (Cache.access c 0);
  check bool "512 still cached" true (Cache.access c 512)

let test_lru_eviction () =
  let c = Cache.create small2 in
  ignore (Cache.access c 0);
  (* way 1 *)
  ignore (Cache.access c 512);
  (* way 2 *)
  ignore (Cache.access c 0);
  (* touch 0: 512 is now LRU *)
  ignore (Cache.access c 1024);
  (* evicts 512 *)
  check bool "0 survives (MRU)" true (Cache.access c 0);
  check bool "512 evicted (LRU)" false (Cache.access c 512)

let test_fully_within_capacity_no_conflict () =
  (* working set = capacity: after the cold pass, everything hits *)
  let c = Cache.create small2 in
  for pass = 1 to 3 do
    for l = 0 to (small2.Cache.capacity / small2.Cache.line) - 1 do
      ignore (Cache.access c (l * small2.Cache.line));
      ignore pass
    done
  done;
  let s = Cache.stats c in
  check int "only cold misses" (small2.Cache.capacity / small2.Cache.line)
    s.Cache.s_misses

let test_conflict_classification () =
  let c = Cache.create small in
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  ignore (Cache.access c 0);
  (* conflict miss: already seen *)
  let s = Cache.stats c in
  check int "cold" 2 s.Cache.s_cold;
  check int "conflict" 1 s.Cache.s_conflict_capacity

let test_reset () =
  let c = Cache.create small in
  ignore (Cache.access c 0);
  Cache.reset c;
  let s = Cache.stats c in
  check int "no hits" 0 s.Cache.s_hits;
  check int "no misses" 0 s.Cache.s_misses;
  check bool "cold again after reset" false (Cache.access c 0)

let test_miss_rate () =
  let c = Cache.create small in
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  check (Alcotest.float 1e-9) "rate 0.5" 0.5 (Cache.miss_rate c);
  check int "references" 2 (Cache.references c)

let test_assoc_monotone () =
  (* more associativity never increases misses on this trace *)
  let trace = List.init 400 (fun i -> (i * 64 * 5) mod 4096) in
  let misses assoc =
    let c = Cache.create { Cache.capacity = 1024; line = 64; assoc } in
    List.iter (fun a -> ignore (Cache.access c a)) trace;
    (Cache.stats c).Cache.s_misses
  in
  let m1 = misses 1 and m2 = misses 2 and m4 = misses 4 in
  check bool "assoc 2 <= 1" true (m2 <= m1);
  check bool "assoc 4 <= 2" true (m4 <= m2)

let test_paper_cache_presets () =
  check int "ksr2 256KB" (256 * 1024) Cache.ksr2_cache.Cache.capacity;
  check int "ksr2 2-way" 2 Cache.ksr2_cache.Cache.assoc;
  check int "convex 1MB" (1024 * 1024) Cache.convex_cache.Cache.capacity;
  check int "convex direct" 1 Cache.convex_cache.Cache.assoc


(* --- run-tier primitives: equivalence with the scalar protocol ------ *)

let stats_equal label a b =
  let sa = Cache.stats a and sb = Cache.stats b in
  check int (label ^ " hits") sa.Cache.s_hits sb.Cache.s_hits;
  check int (label ^ " misses") sa.Cache.s_misses sb.Cache.s_misses;
  check int (label ^ " cold") sa.Cache.s_cold sb.Cache.s_cold

(* After driving two caches through supposedly-equivalent protocols,
   probe every line of a window once on both: identical LRU state yields
   identical hit patterns (and identical state afterwards, since hits on
   the same lines perturb both equally). *)
let probe_equal label a b ~lines =
  let line = (Cache.config a).Cache.line in
  for l = 0 to lines - 1 do
    let addr = l * line in
    check bool
      (Printf.sprintf "%s probe line %d" label l)
      (Cache.access a addr) (Cache.access b addr)
  done;
  stats_equal (label ^ " post-probe") a b

let run_geometries =
  [
    ("dm", small);
    ("2way", small2);
    ("4way", { Cache.capacity = 2048; line = 64; assoc = 4 });
    (* 12 sets: non-power-of-two set count exercises the mod indexing *)
    ("np2", { Cache.capacity = 768; line = 64; assoc = 1 });
    (* one set of 4 KiB lines: a small TLB, found through the way index *)
    ("1set", { Cache.capacity = 8 * 4096; line = 4096; assoc = 8 });
  ]

(* The run-tier side of the equivalence tests: sized with a footprint
   that covers only some of the lines the tests touch, so the bitset
   and way index meet lines on both sides of their range while the
   scalar side keeps the hash table and the scan. *)
let with_footprint cfg = Cache.create ~footprint:(4 * cfg.Cache.capacity) cfg

let test_hit_run_equiv () =
  List.iter
    (fun (gname, cfg) ->
      let batched = with_footprint cfg and scalar = Cache.create cfg in
      (* make three distinct lines resident on both *)
      let addrs = Array.map (fun l -> l * cfg.Cache.line) [| 0; 1; 3 |] in
      Array.iter
        (fun a ->
          ignore (Cache.access batched a);
          ignore (Cache.access scalar a))
        addrs;
      Cache.hit_run batched ~addrs ~k:3 ~m:5;
      for _ = 1 to 5 do
        Array.iter (fun a -> ignore (Cache.access scalar a)) addrs
      done;
      stats_equal (gname ^ " hit_run") batched scalar;
      probe_equal (gname ^ " hit_run") batched scalar ~lines:40)
    run_geometries

let test_hit_run_requires_resident () =
  let c = Cache.create small in
  match Cache.hit_run c ~addrs:[| 0 |] ~k:1 ~m:1 with
  | () -> Alcotest.fail "hit_run on a non-resident line must raise"
  | exception Invalid_argument _ -> ()

let test_repeat_run_equiv () =
  (* direct-mapped thrash: two lines mapping to the same set, plus a
     hitting line; iteration outcomes repeat verbatim from the fixed
     point, which is what repeat_run replays in closed form *)
  List.iter
    (fun (gname, cfg) ->
      let batched = Cache.create cfg and scalar = Cache.create cfg in
      let sets = cfg.Cache.capacity / cfg.Cache.line / cfg.Cache.assoc in
      let addrs = [| 0; sets * 64; 128 |] in
      let iter c = Array.map (fun a -> Cache.access c a) addrs in
      (* two scalar iterations on both: the second runs from the fixed
         point and captures the steady per-reference outcomes *)
      ignore (iter batched);
      ignore (iter scalar);
      let hits = iter batched in
      ignore (iter scalar);
      Cache.repeat_run batched ~addrs ~hits ~k:3 ~m:7;
      for _ = 1 to 7 do
        ignore (iter scalar)
      done;
      stats_equal (gname ^ " repeat_run") batched scalar;
      probe_equal (gname ^ " repeat_run") batched scalar ~lines:40)
    [ ("dm", small); ("np2", { Cache.capacity = 768; line = 64; assoc = 1 }) ]

let test_repeat_run_assoc_guard () =
  let c = Cache.create small2 in
  ignore (Cache.access c 0);
  match Cache.repeat_run c ~addrs:[| 0 |] ~hits:[| true |] ~k:1 ~m:1 with
  | () -> Alcotest.fail "repeat_run on assoc>1 must raise"
  | exception Invalid_argument _ -> ()

(* --- footprint bitset vs hashtbl cold tracking ---------------------- *)

let test_footprint_bitset_equiv () =
  (* same trace on a bitset-tracked cache and a hashtbl-tracked one:
     identical statistics, including cold-miss classification *)
  let with_bitset = Cache.create ~footprint:8192 small in
  let with_hash = Cache.create small in
  for i = 0 to 999 do
    let addr = i * 136 mod 8192 in
    ignore (Cache.access with_bitset addr);
    ignore (Cache.access with_hash addr)
  done;
  stats_equal "bitset vs hashtbl" with_bitset with_hash

let test_footprint_overflow_fallback () =
  (* addresses beyond the declared footprint fall back to the hashtbl
     path and must still classify cold misses exactly once *)
  let c = Cache.create ~footprint:1024 small in
  ignore (Cache.access c 100_000);
  ignore (Cache.access c 200_000);
  ignore (Cache.access c 100_000);
  ignore (Cache.access c 200_000);
  let s = Cache.stats c in
  check int "cold once per line" 2 s.Cache.s_cold;
  check int "re-access hits" 2 s.Cache.s_hits;
  (* in-footprint lines still tracked by the bitset *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  let s = Cache.stats c in
  check int "bitset cold" 3 s.Cache.s_cold

(* --- fully associative way index vs the scan ----------------------- *)

(* One-set caches built with a footprint find a line's way through the
   line -> way index; built without one they scan every way.  Both must
   agree on every hit, miss and counter, across evictions of indexed
   lines, lines beyond the footprint, both tiers and resets. *)

type fa_op =
  | Access of int
  | Hit_run of int array * int  (* addresses made resident, then m rounds *)
  | Reset

type fa_case = {
  fa_assoc : int;
  fa_line : int;
  fa_footprint : int;  (* bytes; ceil(footprint / line) indexed lines *)
  fa_span : int;  (* lines touched: [0, fa_span), past the footprint *)
  fa_ops : fa_op list;
}

let gen_fa_case =
  let open QCheck.Gen in
  let* assoc = int_range 2 16 in
  let* line = oneofl [ 64; 4096 ] in
  let* lines = int_range 1 (3 * assoc) in
  let* slack = int_range 0 (line - 1) in
  let span = lines + assoc + 2 in
  let addr =
    map2
      (fun l off -> (l * line) + off)
      (int_range 0 (span - 1))
      (int_range 0 (line - 1))
  in
  let hit_run =
    let* k = int_range 1 assoc in
    let* addrs = array_repeat k addr in
    let* m = int_range 0 5 in
    return (Hit_run (addrs, m))
  in
  let op =
    frequency
      [
        (5, map (fun a -> Access a) addr);
        (2, hit_run);
        (1, return Reset);
      ]
  in
  let* ops = list_size (int_range 1 60) op in
  return
    {
      fa_assoc = assoc;
      fa_line = line;
      fa_footprint = (lines * line) - slack;
      fa_span = span;
      fa_ops = ops;
    }

let print_fa_case c =
  let op = function
    | Access a -> Printf.sprintf "access %d" a
    | Hit_run (addrs, m) ->
      Printf.sprintf "hit_run [%s] x%d"
        (String.concat ";" (Array.to_list (Array.map string_of_int addrs)))
        m
    | Reset -> "reset"
  in
  Printf.sprintf "assoc %d line %d footprint %d: %s" c.fa_assoc c.fa_line
    c.fa_footprint
    (String.concat ", " (List.map op c.fa_ops))

let prop_way_index_equals_scan =
  QCheck.Test.make ~count:500
    ~name:"indexed fully associative lookups equal the scan"
    (QCheck.make ~print:print_fa_case gen_fa_case)
    (fun c ->
      let cfg =
        {
          Cache.capacity = c.fa_assoc * c.fa_line;
          line = c.fa_line;
          assoc = c.fa_assoc;
        }
      in
      let indexed = Cache.create ~footprint:c.fa_footprint cfg in
      let scan = Cache.create cfg in
      let access i a =
        let hi = Cache.access indexed a in
        let hs = Cache.access scan a in
        if hi <> hs then
          QCheck.Test.fail_reportf "op %d: access %d hit=%b indexed, %b scanning"
            i a hi hs
      in
      List.iteri
        (fun i op ->
          (match op with
          | Access a -> access i a
          | Hit_run (addrs, m) ->
            Array.iter (access i) addrs;
            let k = Array.length addrs in
            Cache.hit_run indexed ~addrs ~k ~m;
            Cache.hit_run scan ~addrs ~k ~m
          | Reset ->
            Cache.reset indexed;
            Cache.reset scan);
          if Cache.stats indexed <> Cache.stats scan then
            QCheck.Test.fail_reportf "op %d: statistics differ" i)
        c.fa_ops;
      (* the final residency agrees line by line *)
      for l = 0 to c.fa_span - 1 do
        access (List.length c.fa_ops) (l * c.fa_line)
      done;
      true)

let suite =
  [
    ("create invalid", `Quick, test_create_invalid);
    ("cold miss then hit", `Quick, test_cold_miss_then_hit);
    ("sequential scan misses", `Quick, test_sequential_scan_misses);
    ("direct-mapped conflict", `Quick, test_direct_mapped_conflict);
    ("associativity absorbs conflict", `Quick, test_assoc_absorbs_conflict);
    ("LRU eviction", `Quick, test_lru_eviction);
    ("within capacity no conflicts", `Quick, test_fully_within_capacity_no_conflict);
    ("conflict classification", `Quick, test_conflict_classification);
    ("reset", `Quick, test_reset);
    ("miss rate", `Quick, test_miss_rate);
    ("associativity monotone", `Quick, test_assoc_monotone);
    ("paper cache presets", `Quick, test_paper_cache_presets);
    ("hit_run equivalence", `Quick, test_hit_run_equiv);
    ("hit_run requires residency", `Quick, test_hit_run_requires_resident);
    ("repeat_run equivalence", `Quick, test_repeat_run_equiv);
    ("repeat_run direct-mapped guard", `Quick, test_repeat_run_assoc_guard);
    ("footprint bitset equivalence", `Quick, test_footprint_bitset_equiv);
    ("footprint overflow fallback", `Quick, test_footprint_overflow_fallback);
    Tutil.to_alcotest prop_way_index_equals_scan;
  ]
