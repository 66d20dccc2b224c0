(** The autotuner's search space: the transformation parameters the
    paper fixes by hand, made explicit and enumerable.

    A candidate combines a schedule variant (unfused, fused shift-and-peel
    — plain or clustered —, wavefront, alignment+replication), a
    strip-mining factor (the §3.4 rule of thumb plus a sweep around it)
    and a data layout (contiguous, intra-array padding, or the Figure 19
    cache partitioning with direct-mapped or associativity-aware
    targets).  Enumeration order is deterministic and always starts with
    the paper-default configuration, so searches can tie-break towards
    it. *)

type variant =
  | Unfused  (** one block-scheduled phase per nest *)
  | Fused of { clustered : bool; strip : int }
      (** shift-and-peel; [clustered] groups via {!Lf_core.Cluster}
          instead of fusing the whole sequence *)
  | Wavefront of { tile : int }  (** shifting only, per-diagonal barriers *)
  | Alignrep of { strip : int }
      (** alignment + replication baseline (Callahan / Appelbe-Smith) *)

type layout_spec =
  | Contiguous
  | Padded of int  (** pad the innermost dimension by this many elements *)
  | Partitioned of { assoc_aware : bool }
      (** cache partitioning; [assoc_aware = false] pretends the cache
          is direct-mapped when choosing partition targets *)

type candidate = { variant : variant; layout : layout_spec }

val paper_default :
  machine:Lf_machine.Machine.config -> Lf_ir.Ir.program -> candidate
(** What the paper's evaluation uses everywhere: plain shift-and-peel
    fusion at the rule-of-thumb strip size with associativity-aware
    cache partitioning. *)

val strips :
  ?sweep:bool -> machine:Lf_machine.Machine.config -> Lf_ir.Ir.program ->
  int list
(** Strip-size axis: the rule of thumb first, then (when [sweep], the
    default) /4, /2, x2, x4 around it and the schedule default. *)

val enumerate :
  ?sweep:bool -> machine:Lf_machine.Machine.config -> Lf_ir.Ir.program ->
  candidate list
(** The full candidate list in deterministic order, paper default
    first.  Feasibility (fusion legality, alignment applicability,
    block-size thresholds) is not checked here — {!build} reports it per
    candidate. *)

val build :
  ?depth:int ->
  machine:Lf_machine.Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  candidate ->
  (Lf_core.Schedule.t * Lf_core.Partition.layout, string) result
(** Realize a candidate as an executable schedule plus a memory layout
    (built from the schedule's own program, so alignment+replication
    copy arrays are placed too).  [Error] when the candidate is
    infeasible for this program/processor count. *)

val layout_to_string : layout_spec -> string
(** Stable layout tag ("contiguous", "pad:N", "partitioned",
    "partitioned(naive)") — the vocabulary calibration factors and
    profile sinks are keyed by. *)

val to_string : candidate -> string
val pp : Format.formatter -> candidate -> unit
