(* Event-counter observability for the simulated machine.

   The paper's evaluation reads hardware event counters (KSR2 PMON, the
   Convex performance registers); this module is their simulator-side
   equivalent.  A [sink] collects per-array x per-phase x per-processor
   counters (references, hits, miss classes, TLB misses) plus a
   structured event stream (phase begin/end, barriers, per-box spans)
   that exports as Chrome trace-event JSON and as paper-style
   attribution tables.

   Attribution of conflict misses: a non-cold miss on a line is charged
   as a *cross-array* conflict when the access that last evicted that
   line came from a different array, and as a *self/capacity* miss
   otherwise.  Under cache partitioning (paper Fig. 19) concurrently
   live data of distinct arrays occupies disjoint set regions, so
   cross-array conflicts vanish — exactly the mechanism Figures 18/20
   attribute the padding-vs-partitioning gap to.

   The sink is pull-free: the instrumented simulator pushes into it
   through a per-processor [probe]; with no sink attached the simulator
   takes its original uninstrumented path, so observation is
   zero-cost-when-disabled and — by construction and by the qcheck
   property in test/test_obs.ml — free of observer effects. *)

type counters = {
  mutable c_refs : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_cold : int;
  mutable c_cross : int;  (* non-cold miss, line evicted by another array *)
  mutable c_self : int;  (* non-cold miss, same array / capacity *)
  mutable c_tlb : int;
}

let fresh_counters () =
  { c_refs = 0; c_hits = 0; c_misses = 0; c_cold = 0; c_cross = 0;
    c_self = 0; c_tlb = 0 }

type total = {
  t_refs : int;
  t_hits : int;
  t_misses : int;
  t_cold : int;
  t_cross : int;
  t_self : int;
  t_tlb : int;
  t_remote : float;  (* expected remote misses: misses * remote fraction *)
}

type event =
  | Phase_begin of { step : int; phase : int; label : string; ts : float }
  | Phase_end of { step : int; phase : int; label : string; ts : float }
  | Barrier of { step : int; after_phase : int; ts : float; dur : float }
  | Box of {
      step : int;
      phase : int;
      proc : int;
      nest : int;
      iters : int;
      ts : float;
      dur : float;
    }

type sink = {
  mutable s_machine : string;
  mutable s_layout : string;
  mutable s_nprocs : int;
  mutable s_arrays : string array;
  mutable s_labels : string array;
  mutable s_remote_fraction : float;
  mutable s_tab : counters array array array;  (* [phase][proc][array] *)
  mutable s_proc_cycles : float array array;  (* [phase][proc], all steps *)
  mutable s_barrier_cycles : float;
  mutable s_events : event list;  (* newest first *)
  mutable s_clock : float;  (* global simulated time for the trace *)
}

let create ?(layout = "unspecified") () =
  {
    s_machine = "";
    s_layout = layout;
    s_nprocs = 0;
    s_arrays = [||];
    s_labels = [||];
    s_remote_fraction = 0.0;
    s_tab = [||];
    s_proc_cycles = [||];
    s_barrier_cycles = 0.0;
    s_events = [];
    s_clock = 0.0;
  }

let set_layout t layout = t.s_layout <- layout

(* One sink records one simulated run: attaching resets all counters
   and the event stream (the layout tag is kept — it belongs to the
   caller, not to a particular run). *)
let attach t ~machine ~nprocs ~arrays ~labels ~remote_fraction =
  let nphases = Array.length labels in
  let narrays = Array.length arrays in
  t.s_machine <- machine;
  t.s_nprocs <- nprocs;
  t.s_arrays <- arrays;
  t.s_labels <- labels;
  t.s_remote_fraction <- remote_fraction;
  t.s_tab <-
    Array.init nphases (fun _ ->
        Array.init nprocs (fun _ -> Array.init narrays (fun _ -> fresh_counters ())));
  t.s_proc_cycles <- Array.make_matrix nphases nprocs 0.0;
  t.s_barrier_cycles <- 0.0;
  t.s_events <- [];
  t.s_clock <- 0.0

let machine_name t = t.s_machine
let layout t = t.s_layout
let nprocs t = t.s_nprocs
let nphases t = Array.length t.s_labels
let arrays t = t.s_arrays

let phase_label t i =
  if i >= 0 && i < Array.length t.s_labels then t.s_labels.(i)
  else Printf.sprintf "phase%d" i

(* ------------------------------------------------------------------ *)
(* Per-processor probes                                                 *)

type probe = {
  p_sink : sink;
  p_proc : int;
  mutable p_phase : int;
  mutable p_step : int;
  mutable p_bank : counters array;  (* tab.(phase).(proc) *)
  (* line address -> array id of the access that evicted it; private
     caches make this per processor *)
  p_evictor : (int, int) Hashtbl.t;
  (* box events of the current phase, newest first.  Buffered privately
     so that probes driven by concurrent host domains never contend on
     the sink; [flush_boxes] merges the buffers in processor order at
     phase end, which reproduces the serial engine's event order
     exactly. *)
  mutable p_boxes : event list;
}

let probe t ~proc =
  if t.s_nprocs = 0 then invalid_arg "Obs.probe: sink not attached";
  {
    p_sink = t;
    p_proc = proc;
    p_phase = 0;
    p_step = 1;
    p_bank = t.s_tab.(0).(proc);
    p_evictor = Hashtbl.create 4096;
    p_boxes = [];
  }

let set_phase p ~step ~phase =
  p.p_step <- step;
  p.p_phase <- phase;
  p.p_bank <- p.p_sink.s_tab.(phase).(p.p_proc)

let record_access p ~aid ~line ~hit ~cold ~evicted =
  let c = p.p_bank.(aid) in
  c.c_refs <- c.c_refs + 1;
  if hit then begin
    c.c_hits <- c.c_hits + 1;
    false
  end
  else begin
    c.c_misses <- c.c_misses + 1;
    let cross =
      if cold then begin
        c.c_cold <- c.c_cold + 1;
        false
      end
      else
        match Hashtbl.find_opt p.p_evictor line with
        | Some e when e <> aid ->
          c.c_cross <- c.c_cross + 1;
          true
        | _ ->
          c.c_self <- c.c_self + 1;
          false
    in
    if evicted >= 0 then Hashtbl.replace p.p_evictor evicted aid;
    cross
  end

(* Run-compressed recorders: the batched engine (Exec Run_compressed
   mode) proves that a group of accesses all hit, or that an iteration's
   per-reference outcomes repeat verbatim, and records them wholesale.
   Counter totals must equal what per-access [record_access] calls would
   have produced — the engine's bit-identity bar extends to sinks. *)

let record_hit_run p ~aid ~n =
  let c = p.p_bank.(aid) in
  c.c_refs <- c.c_refs + n;
  c.c_hits <- c.c_hits + n

(* [n] repeats of one non-cold miss whose cross/self attribution [cross]
   was captured from the preceding simulated access.  The evictor table
   is left untouched: during a verbatim repeat every displaced line is
   re-evicted by the same array, so each update would rewrite an entry
   with the value it already has. *)
let record_miss_run p ~aid ~cross ~n =
  let c = p.p_bank.(aid) in
  c.c_refs <- c.c_refs + n;
  c.c_misses <- c.c_misses + n;
  if cross then c.c_cross <- c.c_cross + n else c.c_self <- c.c_self + n

let record_tlb_miss p ~aid =
  let c = p.p_bank.(aid) in
  c.c_tlb <- c.c_tlb + 1

let box_span p ~nest ~iters ~t0 ~t1 =
  (* [s_clock] is only advanced between phases (by [phase_end] and
     [barrier], on the coordinating domain, with a join in between), so
     reading it here is race-free even when probes run on workers. *)
  p.p_boxes <-
    Box
      {
        step = p.p_step;
        phase = p.p_phase;
        proc = p.p_proc;
        nest;
        iters;
        ts = p.p_sink.s_clock +. t0;
        dur = t1 -. t0;
      }
    :: p.p_boxes

(* Merge the probes' privately buffered box events into the sink's
   stream, in probe (= simulated processor) order: the resulting event
   order is identical to the serial engine pushing each processor's
   boxes as it executes them.  Must be called from the coordinating
   domain, after the workers have joined. *)
let flush_boxes t probes =
  Array.iter
    (fun p ->
      t.s_events <- p.p_boxes @ t.s_events;
      p.p_boxes <- [])
    probes

(* ------------------------------------------------------------------ *)
(* Machine-level events                                                 *)

let phase_begin t ~step ~phase =
  t.s_events <-
    Phase_begin { step; phase; label = phase_label t phase; ts = t.s_clock }
    :: t.s_events

(* [cycles] is the phase's max-over-processors time; the global clock
   advances by it (processors run the phase concurrently). *)
let phase_end t ~step ~phase ~cycles =
  t.s_clock <- t.s_clock +. cycles;
  t.s_events <-
    Phase_end { step; phase; label = phase_label t phase; ts = t.s_clock }
    :: t.s_events

let proc_cycles t ~phase ~proc ~cycles =
  t.s_proc_cycles.(phase).(proc) <- t.s_proc_cycles.(phase).(proc) +. cycles

let barrier t ~step ~after_phase ~cost =
  t.s_events <-
    Barrier { step; after_phase; ts = t.s_clock; dur = cost } :: t.s_events;
  t.s_clock <- t.s_clock +. cost;
  t.s_barrier_cycles <- t.s_barrier_cycles +. cost

let barrier_cycles t = t.s_barrier_cycles
let events t = List.rev t.s_events

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)

let zero_total =
  { t_refs = 0; t_hits = 0; t_misses = 0; t_cold = 0; t_cross = 0;
    t_self = 0; t_tlb = 0; t_remote = 0.0 }

let add_counters rf acc c =
  {
    t_refs = acc.t_refs + c.c_refs;
    t_hits = acc.t_hits + c.c_hits;
    t_misses = acc.t_misses + c.c_misses;
    t_cold = acc.t_cold + c.c_cold;
    t_cross = acc.t_cross + c.c_cross;
    t_self = acc.t_self + c.c_self;
    t_tlb = acc.t_tlb + c.c_tlb;
    t_remote = acc.t_remote +. (float_of_int c.c_misses *. rf);
  }

(* Filtered sum over the counter cube. *)
let total_of ?phase ?proc ?array_ t =
  let rf = t.s_remote_fraction in
  let acc = ref zero_total in
  Array.iteri
    (fun ph per_proc ->
      if phase = None || phase = Some ph then
        Array.iteri
          (fun pr per_array ->
            if proc = None || proc = Some pr then
              Array.iteri
                (fun a c ->
                  if array_ = None || array_ = Some t.s_arrays.(a) then
                    acc := add_counters rf !acc c)
                per_array)
          per_proc)
    t.s_tab;
  !acc

let totals t = total_of t

let proc_misses t =
  Array.init t.s_nprocs (fun pr -> (total_of ~proc:pr t).t_misses)

let phase_proc_cycles t = t.s_proc_cycles

(* Measured miss inflation over compulsory misses, the quantity the
   analytic cost tier guesses with layout heuristics (Cost). *)
let miss_factor t =
  let tt = totals t in
  float_of_int tt.t_misses /. float_of_int (max 1 tt.t_cold)

type group = By_array | By_phase | By_proc

let breakdown t ~by =
  match by with
  | By_array ->
    Array.to_list
      (Array.map (fun a -> (a, total_of ~array_:a t)) t.s_arrays)
  | By_phase ->
    List.init (nphases t) (fun ph ->
        (Printf.sprintf "%d:%s" ph (phase_label t ph), total_of ~phase:ph t))
  | By_proc ->
    List.init t.s_nprocs (fun pr ->
        (Printf.sprintf "proc%d" pr, total_of ~proc:pr t))

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

let pp_total_row ppf (name, tt) =
  Fmt.pf ppf "%-14s %10d %10d %9d %9d %9d %8d %10.1f@." name tt.t_refs
    tt.t_misses tt.t_cold tt.t_cross tt.t_self tt.t_tlb tt.t_remote

let pp_table ~by ppf t =
  Fmt.pf ppf "%-14s %10s %10s %9s %9s %9s %8s %10s@."
    (match by with
    | By_array -> "array"
    | By_phase -> "phase"
    | By_proc -> "processor")
    "refs" "misses" "cold" "cross" "self" "tlb" "remote";
  List.iter (pp_total_row ppf) (breakdown t ~by);
  pp_total_row ppf ("TOTAL", totals t)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (chrome://tracing, Perfetto)                 *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Timestamps are simulated cycles rendered as microseconds. *)
let trace_json t =
  let b = Buffer.create 4096 in
  let first = ref true in
  let emit fmt =
    if !first then first := false else Buffer.add_string b ",\n  ";
    Printf.ksprintf (Buffer.add_string b) fmt
  in
  Buffer.add_string b "{\"traceEvents\": [\n  ";
  for pr = 0 to t.s_nprocs - 1 do
    emit
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"proc %d\"}}"
      pr pr
  done;
  emit
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"machine\"}}"
    t.s_nprocs;
  (* match Phase_end to the preceding Phase_begin of the same step/phase *)
  let begins = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev with
      | Phase_begin { step; phase; ts; _ } ->
        Hashtbl.replace begins (step, phase) ts
      | Phase_end { step; phase; label; ts } ->
        let t0 =
          Option.value ~default:ts (Hashtbl.find_opt begins (step, phase))
        in
        emit
          "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"step\":%d,\"phase\":%d}}"
          (json_escape label) t0 (ts -. t0) t.s_nprocs step phase
      | Barrier { step; after_phase; ts; dur } ->
        emit
          "{\"name\":\"barrier\",\"cat\":\"barrier\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"step\":%d,\"after_phase\":%d}}"
          ts dur t.s_nprocs step after_phase
      | Box { step; phase; proc; nest; iters; ts; dur } ->
        emit
          "{\"name\":\"nest%d\",\"cat\":\"box\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"step\":%d,\"phase\":%d,\"nest\":%d,\"iters\":%d}}"
          nest ts dur proc step phase nest iters)
    (events t);
  Printf.ksprintf (Buffer.add_string b)
    "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"machine\": \"%s\", \"layout\": \"%s\", \"nprocs\": %d}}\n"
    (json_escape t.s_machine) (json_escape t.s_layout) t.s_nprocs;
  Buffer.contents b
