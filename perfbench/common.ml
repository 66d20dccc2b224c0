(* Shared plumbing of the benchmark: options, host facts, statistics,
   seeded generators, child processes, scratch directories and the
   JSON result line. *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;  (* reduced sizes: the benchmark's own self-test *)
  lfc : string;  (* built lfc executable *)
  tmp : string;  (* this run's scratch root; removed at exit *)
  out_dir : string;  (* where the traced run writes its Chrome trace *)
  host_cores : int;
  commit : string;
}

(* ------------------------------------------------------------------ *)
(* JSON *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | List of json list

let rec json_to_string = function
  | Num f ->
    if Float.is_finite f then Printf.sprintf "%.17g" f
    else "null"
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "\"%s\"" (String.escaped s)
  | Bool b -> string_of_bool b
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_to_string v))
           kvs)
    ^ "}"
  | List l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"

(* What one workload run produces. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  detail : (string * float * string) list;  (* the workload's own breakdown *)
  report : (string * json) list;  (* sizes, policy, counts: not metrics *)
}

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile, q in [0, 1]. *)
let quantile q a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n = 1 then s.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile 0.5 a

let geomean l =
  match l with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 l
      /. float_of_int (List.length l))

(* Samples strictly above the q-quantile: a tail percentile is reported
   only when at least ten samples lie beyond it. *)
let beyond q a =
  let t = quantile q a in
  Array.fold_left (fun acc x -> if x > t then acc + 1 else acc) 0 a

(* ------------------------------------------------------------------ *)
(* Host facts *)

(* /proc files report length 0: read to end of file instead *)
let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let read_first_line path =
  Option.map
    (fun s -> String.trim (List.hd (String.split_on_char '\n' s)))
    (read_file path)

(* "2048K" / "105M" -> bytes *)
let parse_size s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    let mult, digits =
      match s.[n - 1] with
      | 'K' | 'k' -> (1024, String.sub s 0 (n - 1))
      | 'M' | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'G' | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    Option.map (fun v -> v * mult) (int_of_string_opt digits)

(* Unified/data cache size of one level as sysfs reports it for cpu0. *)
let cache_bytes level =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let rec scan i =
    let idx = Printf.sprintf "%s/index%d" dir i in
    if not (Sys.file_exists idx) then None
    else
      match
        ( read_first_line (idx ^ "/level"),
          read_first_line (idx ^ "/type"),
          read_first_line (idx ^ "/size") )
      with
      | Some l, Some ty, Some sz
        when int_of_string_opt l = Some level && ty <> "Instruction" ->
        parse_size sz
      | _ -> scan (i + 1)
  in
  scan 0

type caches = { l2 : int; l3 : int; from_sysfs : bool }

(* Fallbacks only when sysfs is silent; the report says which. *)
let host_caches () =
  match (cache_bytes 2, cache_bytes 3) with
  | Some l2, Some l3 -> { l2; l3; from_sysfs = true }
  | Some l2, None -> { l2; l3 = 32 lsl 20; from_sysfs = false }
  | _ -> { l2 = 1 lsl 20; l3 = 32 lsl 20; from_sysfs = false }

let vm_hwm_kib pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)

(* The native workload's two working-set targets per kernel: past the
   host's L3 (membound) and inside one core's L2 (incache). *)
let membound_target o caches = if o.quick then 4 lsl 20 else 2 * caches.l3
let incache_target caches = caches.l2 / 2

let host_report o caches =
  [
    ("host_cores", Int o.host_cores);
    ("l2_bytes", Int caches.l2);
    ("l3_bytes", Int caches.l3);
    ("caches_from_sysfs", Bool caches.from_sysfs);
    ("ocaml_version", Str Sys.ocaml_version);
    ("commit", Str o.commit);
    ("seed", Int o.seed);
    ("seconds", Num o.seconds);
    ("native_membound_target_bytes", Int (membound_target o caches));
    ("native_incache_target_bytes", Int (incache_target caches));
    ("clock", Str "Bench_timer.now_ns (CLOCK_MONOTONIC)");
    ("timing_policy", Str "median of the run's samples; tail percentiles only with >= 10 samples beyond");
  ]

(* ------------------------------------------------------------------ *)
(* Seeded generators *)

let rng seed salt = Random.State.make [| 0x5eed; seed; salt |]

(* zipf(theta = 1) CDF over ranks 0..n-1 *)
let zipf_cdf n =
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf st =
  let u = Random.State.float st 1.0 in
  let n = Array.length cdf in
  let rec find i = if i >= n - 1 || u < cdf.(i) then i else find (i + 1) in
  find 0

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let fresh_dir o name =
  let d = Filename.concat o.tmp name in
  rm_rf d;
  mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Child processes: the real `lfc` binary, started with create_process
   (spawn-based, so legal after this process has run domains) and an
   environment without the LF_* variables, so nothing reaches the
   repository's default store, queue or socket. *)

let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not (String.length kv >= 3 && String.sub kv 0 3 = "LF_"))
  |> Array.of_list

let spawn_lfc o ~stdout_file args =
  let out =
    Unix.openfile stdout_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process_env o.lfc
          (Array.of_list (o.lfc :: args))
          (child_env ()) Unix.stdin out Unix.stderr)
  in
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + abs s

(* ------------------------------------------------------------------ *)
(* GC accounting around a run *)

let gc_metrics (before : Gc.stat) =
  let after = Gc.quick_stat () in
  [
    ( "gc.minor_mb",
      (after.Gc.minor_words -. before.Gc.minor_words)
      *. float_of_int (Sys.word_size / 8)
      /. 1e6,
      "MB" );
    ( "gc.major_collections",
      float_of_int (after.Gc.major_collections - before.Gc.major_collections),
      "count" );
  ]
