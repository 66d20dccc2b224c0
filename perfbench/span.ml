(* In-memory spans around the benchmark's calls into each layer.

   [timed name f] always measures [f] on the monotonic clock and
   returns its duration; when tracing is on it also records a span
   (name, start, end, parent, request id) on the calling thread's
   stack.  Spans stay in memory and are written once, at exit, as
   Chrome-trace JSON ("ph":"X" complete events, the format lf_obs
   exports), so the two timelines can later be merged. *)

let now_ns = Lf_native.Bench_timer.now_ns

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* Loop deadlines on the same monotonic clock as every timing. *)
let deadline seconds = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9))
let past deadline = now_ns () >= deadline

type span = {
  id : int;
  name : string;
  rid : int;
  parent : int;  (* 0 = root *)
  tid : int;
  t0 : int64;
  t1 : int64;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 1

(* open span ids per thread, innermost first *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let push tid =
  with_lock (fun () ->
      let id = !next_id in
      incr next_id;
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      Hashtbl.replace stacks tid (id :: stack);
      (id, match stack with p :: _ -> p | [] -> 0))

let pop tid s =
  with_lock (fun () ->
      (match Hashtbl.find_opt stacks tid with
      | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
      | _ -> ());
      recorded := s :: !recorded)

(* Run [f], returning its result and its duration in seconds. *)
let timed ?(rid = 0) name f =
  if not !enabled then begin
    let t0 = now_ns () in
    let r = f () in
    (r, seconds_between t0 (now_ns ()))
  end
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent = push tid in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      pop tid { id; name; rid; parent; tid; t0; t1 };
      seconds_between t0 t1
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let time ?rid name f = snd (timed ?rid name f)

(* Self time per span name: a span's duration minus the time its
   children cover.  Children of one span run on the parent's thread,
   nested, so they never overlap each other. *)
let self_times () =
  let spans = with_lock (fun () -> !recorded) in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0
          +. seconds_between s.t0 s.t1))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        seconds_between s.t0 s.t1
        -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      Hashtbl.replace by_name s.name
        (Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0 +. self))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare

let write_chrome_trace path =
  let spans = with_lock (fun () -> List.rev !recorded) in
  let origin =
    List.fold_left (fun acc s -> if s.t0 < acc then s.t0 else acc)
      Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
         \"rid\": %d}}"
        (if i = 0 then "" else ",\n")
        (String.escaped s.name) (Unix.getpid ()) s.tid (us s.t0)
        (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3)
        s.id s.parent s.rid)
    spans;
  output_string oc "\n], \"displayTimeUnit\": \"ms\"}\n";
  close_out oc;
  List.length spans
