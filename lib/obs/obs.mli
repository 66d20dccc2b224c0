(** Event-counter observability for the simulated machine.

    The paper's evaluation reads hardware event counters (KSR2 PMON,
    Convex performance registers); [Obs] is the simulator-side
    equivalent.  A {!sink} collects per-array x per-phase x
    per-processor counters plus a structured event stream, exportable
    as Chrome trace-event JSON and paper-style attribution tables.

    Observation is strictly passive: with no sink attached the
    simulator takes its original path, and with one attached the
    simulated state (stores, cycle counts, cache contents) is
    bit-identical — see the observer-effect property in
    test/test_obs.ml.

    A sink observes one simulated run and nothing else: the host-side
    runtime (domain pools, barriers, the batch layer) reports no
    counters here. *)

(** {1 Counters} *)

type counters = {
  mutable c_refs : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_cold : int;
  mutable c_cross : int;
      (** non-cold misses whose line was last evicted by another array *)
  mutable c_self : int;  (** non-cold same-array conflict/capacity misses *)
  mutable c_tlb : int;
}

type total = {
  t_refs : int;
  t_hits : int;
  t_misses : int;
  t_cold : int;
  t_cross : int;
  t_self : int;
  t_tlb : int;
  t_remote : float;
      (** expected remote misses: misses x machine remote fraction *)
}

(** {1 Events} *)

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

(** {1 Sinks} *)

type sink

val create : ?layout:string -> unit -> sink
(** [create ?layout ()] makes an empty sink. [layout] is a free-form
    tag (e.g. ["partitioned"], ["pad:9"]) used to key calibration
    factors; see {!Lf_tune} . *)

val set_layout : sink -> string -> unit

val attach :
  sink ->
  machine:string ->
  nprocs:int ->
  arrays:string array ->
  labels:string array ->
  remote_fraction:float ->
  unit
(** Bind the sink to one simulated run, resetting counters and events.
    Called by [Exec.run_opts] when the options carry a sink. *)

val machine_name : sink -> string
val layout : sink -> string
val nprocs : sink -> int
val nphases : sink -> int
val arrays : sink -> string array
val phase_label : sink -> int -> string

(** {1 Per-processor probes}

    The simulator pushes accesses through a probe so that counter-bank
    lookup is one phase-indexed load, and eviction attribution stays
    private to each processor's cache. *)

type probe

val probe : sink -> proc:int -> probe
val set_phase : probe -> step:int -> phase:int -> unit

val record_access :
  probe -> aid:int -> line:int -> hit:bool -> cold:bool -> evicted:int -> bool
(** [record_access p ~aid ~line ~hit ~cold ~evicted] records one cache
    access by array [aid] to line address [line]. [evicted] is the line
    address displaced by a miss, or [-1]. A non-cold miss is charged as
    cross-array when the evictor of [line] was a different array;
    returns [true] exactly when it was so charged (the run-compressed
    engine captures this to replay the attribution wholesale). *)

val record_hit_run : probe -> aid:int -> n:int -> unit
(** [n] accesses by [aid] that all hit, recorded wholesale; counter
    totals equal [n] hit [record_access] calls. *)

val record_miss_run : probe -> aid:int -> cross:bool -> n:int -> unit
(** [n] verbatim repeats of a non-cold miss by [aid] whose cross/self
    attribution [cross] came from the preceding recorded access.  The
    evictor table is deliberately untouched: a verbatim repeat would
    rewrite each entry with its current value. *)

val record_tlb_miss : probe -> aid:int -> unit

val box_span : probe -> nest:int -> iters:int -> t0:float -> t1:float -> unit
(** Record one executed box.  The event is buffered privately in the
    probe (probes may be driven by concurrent host domains without
    contending on the sink) until {!flush_boxes} merges it. *)

val flush_boxes : sink -> probe array -> unit
(** Merge every probe's buffered box events into the sink's event
    stream, in probe (= simulated processor) order — the deterministic
    phase-end reduction of the per-domain sub-sinks.  Call from the
    coordinating domain once the phase's workers have joined; the
    resulting stream is identical to a serial engine pushing each
    processor's events as it runs. *)

(** {1 Machine-level events} *)

val phase_begin : sink -> step:int -> phase:int -> unit

val phase_end : sink -> step:int -> phase:int -> cycles:float -> unit
(** [cycles] is the phase's max-over-processors time; the sink's global
    clock advances by it. *)

val proc_cycles : sink -> phase:int -> proc:int -> cycles:float -> unit
val barrier : sink -> step:int -> after_phase:int -> cost:float -> unit
val barrier_cycles : sink -> float
val events : sink -> event list
(** Events in chronological order. *)

(** {1 Aggregation and reporting} *)

val total_of : ?phase:int -> ?proc:int -> ?array_:string -> sink -> total
val totals : sink -> total
val proc_misses : sink -> int array
val phase_proc_cycles : sink -> float array array

val miss_factor : sink -> float
(** Measured miss inflation over compulsory misses
    (misses / max 1 cold) — the quantity the [Lf_tune] analytic tier
    estimates with layout heuristics. *)

type group = By_array | By_phase | By_proc

val breakdown : sink -> by:group -> (string * total) list
val pp_table : by:group -> Format.formatter -> sink -> unit

val trace_json : sink -> string
(** Chrome trace-event JSON (load in chrome://tracing or Perfetto).
    Timestamps are simulated cycles rendered as microseconds. *)
