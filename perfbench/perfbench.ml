(* Entry point of the repository benchmark: one workload per process.

     perfbench.exe --workload native|sweep-cold|serve-mixed --seed N
       --seconds S --trace 0|1 --lfc PATH --tmp DIR --out DIR
       [--host-cores N] [--commit SHA] [--quick]

   Prints a report line ({"report": ...}), a detail line ({"detail":
   ...}, the workload's own breakdown), with --trace 1 a self-time line
   ({"self_time_s": ...}), and last the result line
   {"correct", "attempted", "failed", "metrics"}.  perfbench/run.py
   builds this executable and lfc and runs it. *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload native|sweep-cold|serve-mixed --seed N \
     --seconds S --trace 0|1 --lfc PATH --tmp DIR --out DIR [--quick]";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | [] -> acc
    | "--quick" :: rest -> go (("quick", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let opt k d = Option.value (List.assoc_opt k kv) ~default:d in
  {
    workload = get "workload";
    seed = int "seed";
    seconds =
      (match float_of_string_opt (get "seconds") with
      | Some s when s > 0.0 -> s
      | _ -> usage ());
    trace = int "trace" <> 0;
    quick = List.mem_assoc "quick" kv;
    lfc = get "lfc";
    tmp = get "tmp";
    out_dir = get "out";
    host_cores =
      Option.value
        (int_of_string_opt (opt "host-cores" ""))
        ~default:(Domain.recommended_domain_count ());
    commit = opt "commit" "unknown";
  }

let metric_obj l =
  Obj
    (List.map
       (fun (name, v, unit) -> (name, Obj [ ("value", Num v); ("unit", Str unit) ]))
       l)

let () =
  let o = parse_args () in
  let run =
    match o.workload with
    | "native" -> Wl_native.run
    | "sweep-cold" -> Wl_sweep.run
    | "serve-mixed" -> Wl_serve.run
    | "record-expected" ->
      Wl_sweep.record_expected o;
      Wl_native.record_expected o;
      exit 0
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  mkdir_p o.tmp;
  Span.enabled := o.trace;
  let r = Fun.protect ~finally:(fun () -> rm_rf o.tmp) (fun () -> run o) in
  print_endline
    (json_to_string
       (Obj
          [
            ( "report",
              Obj
                (("workload", Str o.workload)
                :: ("quick", Bool o.quick)
                :: r.report) );
          ]));
  print_endline (json_to_string (Obj [ ("detail", metric_obj r.detail) ]));
  if o.trace then begin
    mkdir_p o.out_dir;
    let path =
      Filename.concat o.out_dir
        (Printf.sprintf "%s-seed%d.trace.json" o.workload o.seed)
    in
    let n = Span.write_chrome_trace path in
    print_endline
      (json_to_string
         (Obj
            [
              ("trace_file", Str path);
              ("spans", Int n);
              ( "self_time_s",
                Obj (List.map (fun (k, v) -> (k, Num v)) (Span.self_times ()))
              );
            ]))
  end;
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool (r.failed = 0));
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ("metrics", metric_obj r.metrics);
          ]))
