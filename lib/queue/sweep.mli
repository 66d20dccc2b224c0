(** The standard sweep mix: the paper's kernels crossed with both
    machine models, both pure engine tiers and fused/unfused variants,
    each with its cache-partitioned layout and §3.4 strip factor.

    One definition shared by every consumer that used to build its own
    copy — the serve bench's zipf mix, the queue bench's work list and
    [lfc sweep]'s enqueue set — so "the sweep" is the same request set
    everywhere and digests agree across processes by construction. *)

val partitioned_layout :
  Lf_machine.Machine.config -> Lf_ir.Ir.program -> Lf_core.Partition.layout
(** {!Lf_machine.Machine.partitioned_layout}. *)

val strip_for : Lf_machine.Machine.config -> Lf_ir.Ir.program -> int
(** {!Lf_machine.Machine.strip_for}. *)

val kernels : (string * (int -> Lf_ir.Ir.program)) list
(** Name → constructor (problem size [n]) for every sweep kernel. *)

val kernel_names : string list

val kernel : string -> (int -> Lf_ir.Ir.program) option

val mix :
  ?kernels:string list ->
  ?machines:Lf_machine.Machine.config list ->
  ?modes:Lf_machine.Sim.mode list ->
  ?nprocs:int ->
  n:int ->
  unit ->
  Lf_machine.Sim.request list
(** The sweep request list: kernels x machines x modes x
    {unfused, fused}, keeping only requests whose schedule is legal at
    this size.  Defaults reproduce the serve bench's historical mix
    (all kernels, both machines, both pure modes, [nprocs = 4]).
    Raises [Invalid_argument] on an unknown kernel name. *)
