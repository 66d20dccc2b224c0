(* Shared helpers for the experiment harness. *)

module Ir = Lf_ir.Ir
module Partition = Lf_core.Partition
module Machine = Lf_machine.Machine
module Exec = Lf_machine.Exec
module Sim = Lf_machine.Sim
module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts
module Cache = Lf_cache.Cache

(* [timings = false] (--no-timings) keeps wall-clock figures out of the
   printed output, so two runs of one experiment can be diffed. *)
type cfg = { quick : bool; procs_cap : int option; timings : bool }

(* ------------------------------------------------------------------ *)
(* Result-store policy of every batch-routed experiment (bench --cold /
   --no-store).  The batch layer opens the store on first use, so
   experiments that never simulate (t2, f9 golden runs) create no
   _lf_cache/ directory. *)

let opts = ref Run_opts.default

(* A request list through Batch.run_with: dedup, store hits, misses
   sharded across host domains; first failure re-raised in request
   order. *)
let run_requests reqs =
  let outcomes, _summary = Batch.run_with !opts reqs in
  Batch.results_exn outcomes

let scale cfg full quick_v = if cfg.quick then quick_v else full

let cap_procs cfg procs =
  let procs = match cfg.procs_cap with
    | None -> procs
    | Some cap -> List.filter (fun p -> p <= cap) procs
  in
  if cfg.quick then List.filter (fun p -> p <= 8) procs else procs

(* Layout/strip helpers live in Lf_machine.Machine (shared with the
   tuner, the sweep mix and transformation scripts); these are the
   historical names. *)
let cache_shape = Machine.cache_shape
let partitioned_layout = Machine.partitioned_layout

let contiguous_layout (p : Ir.program) = Partition.contiguous p.Ir.decls

let padded_layout ~pad (p : Ir.program) = Partition.padded ~pad p.Ir.decls

let strip_for = Machine.strip_for

(* One fused-vs-unfused measurement with cache-partitioned layout. *)
type pair = {
  unfused : Exec.result;
  fused : Exec.result;
}

let run_pair ?layout ?mode ~machine ~nprocs (p : Ir.program) =
  let layout =
    match layout with Some l -> l | None -> partitioned_layout machine p
  in
  let strip = strip_for machine p in
  match
    run_requests
      [
        Sim.unfused ?mode ~layout ~machine ~nprocs p;
        Sim.fused ?mode ~layout ~machine ~nprocs ~strip p;
      ]
  with
  | [| unfused; fused |] -> { unfused; fused }
  | _ -> assert false

let pr fmt = Fmt.pr fmt

let header title =
  pr "@.==========================================================@.";
  pr "%s@." title;
  pr "==========================================================@."

let subheader t = pr "@.---- %s ----@." t

(* Print a speedup table: rows of (P, list of (label, speedup)). *)
let speedup_table ~labels rows =
  pr "%6s" "P";
  List.iter (fun l -> pr "  %14s" l) labels;
  pr "@.";
  List.iter
    (fun (p, values) ->
      pr "%6d" p;
      List.iter (fun v -> pr "  %14.2f" v) values;
      pr "@.")
    rows

let misses_table ~labels rows =
  pr "%6s" "P";
  List.iter (fun l -> pr "  %14s" l) labels;
  pr "@.";
  List.iter
    (fun (p, values) ->
      pr "%6d" p;
      List.iter (fun v -> pr "  %14d" v) values;
      pr "@.")
    rows

(* Monotonic elapsed-seconds timer, shared with the measurement
   harness (Lf_native.Bench_timer) — gettimeofday jumps with NTP
   adjustments; experiment wall-clock should not. *)
let elapsed_timer () =
  let t0 = Lf_native.Bench_timer.now_ns () in
  fun () ->
    Int64.to_float (Int64.sub (Lf_native.Bench_timer.now_ns ()) t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json FILE).  Experiments append flat
   key/value objects; main.exe adds per-experiment wall-clock entries
   and serialises everything at exit. *)

type jval = Int of int | Float of float | Str of string | Bool of bool

let metrics : (string * (string * jval) list) list ref = ref []

let note ~id kvs = metrics := (id, kvs) :: !metrics

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jval_to_string = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Bool b -> if b then "true" else "false"

let write_json ~file ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"store\": %b,\n  \"cold\": %b,\n"
       (Run_opts.store_enabled !opts) (Run_opts.is_cold !opts));
  Buffer.add_string buf
    (Printf.sprintf "  \"store_hits\": %d,\n  \"store_computed\": %d,\n"
       (Batch.hit_count ()) (Batch.computed_count ()));
  Buffer.add_string buf "  \"experiments\": [\n";
  let entries = List.rev !metrics in
  List.iteri
    (fun i (id, kvs) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"id\": \"%s\"" (json_escape id));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ", \"%s\": %s" (json_escape k) (jval_to_string v)))
        kvs;
      Buffer.add_string buf
        (if i = List.length entries - 1 then "}\n" else "},\n"))
    entries;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc
