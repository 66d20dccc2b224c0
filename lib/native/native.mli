(** Native multicore execution of schedules: the same phase/box
    structure the simulator interprets, lowered to real OCaml running
    on the host's cores.

    The simulator ({!Lf_machine.Exec}) walks a {!Lf_core.Schedule.t}
    and charges model cycles; this module walks the {e same} schedule
    and spends real ones — float64 {!Bigarray} buffers, one domain per
    simulated processor from a {!Lf_parallel.Pool} (the caller doubles
    as worker 0), a {!Lf_parallel.Spin_barrier} between phases and
    steps.  It is the executable continuation of {!Lf_core.Codegen}:
    where codegen renders the strip-mined/peeled/wavefront iteration
    structure as C-like text, this lowers each nest body once per run
    into chunked inner loops and runs every box of every phase through
    them.

    {b Chunked lowering.}  Each row of a box (outer levels fixed) runs
    its innermost loop in chunks of at most 256 points.  A chunk runs
    one statement at a time, and each expression node of the statement
    is one allocation-free loop over the chunk that writes an unboxed
    per-worker register (the root writes the left-hand side).  Array
    reads and constants are operands read inside their parent's loop;
    a reference is addressed once per chunk as a row base plus an inner
    stride; outer guard conjuncts are tested once per row and the inner
    guard interval clips the chunk.

    {b Why chunks keep point order.}  Inside one chunk the statement
    instances run statement-major (statement, then point) instead of
    point-major, which can reorder only instances at different inner
    points of one row.  A nest whose inner level may carry a
    dependence ({!Lf_dep.Dep.may_carry_dim}) therefore runs in chunks
    of one point, which is point order itself; in any other nest no
    two reordered instances touch the same element.

    {b Bit-identity.}  Element values are produced by the same
    statement instances applying the same IEEE-754 operations to the
    same operands as {!Lf_ir.Interp} (constant subtrees fold with the
    same operations), with the instance order preserved as above in
    the per-processor box order of the schedule; legality (Theorem 1)
    makes phases order-independent across processors, so the final
    array contents are bit-identical to the serial reference —
    {!verify} checks exactly that, and the CI smoke asserts it on
    every run.

    {b Bounds.}  Before the parallel region starts, every reference of
    every box is checked per array dimension at the corners of the
    box's (guard-clipped) iteration rectangle — exact, since the
    subscripts are affine — so the loops use unchecked access and an
    out-of-range subscript raises {!Lf_ir.Interp.Out_of_bounds} (array,
    dimension and index) on the caller, before any worker runs.

    {b What is deliberately absent.}  No layout: simulated address
    placement ({!Lf_core.Partition}) maps arrays into a modelled
    memory; natively each array is one Bigarray and the host's real
    cache does what it does.  No result store: measured wall-clock is
    host-dependent and nondeterministic, so it is never persisted in
    [_lf_cache/] (see DESIGN §7/§11 and {!Lf_batch.Batch.Store}). *)

type buffers
(** Float64 storage for every declared array of one program. *)

val create :
  ?init:(string -> int -> float) -> Lf_ir.Ir.program -> buffers
(** Allocate and initialise all declared arrays ([init] defaults to
    {!Lf_ir.Interp.default_init}, the reference initialiser). *)

val reset : ?init:(string -> int -> float) -> buffers -> unit
(** Refill every array with its initial values (between timed
    repetitions). *)

val to_store : buffers -> Lf_ir.Interp.store
(** Copy the buffer contents into an interpreter store for bit-exact
    comparison ({!Lf_ir.Interp.diff}) with a reference run. *)

val checksum : buffers -> float
(** Order-stable sum over all arrays ({!Lf_ir.Interp.checksum}). *)

val run :
  ?init:(string -> int -> float) ->
  ?steps:int ->
  ?pool:Lf_parallel.Pool.t ->
  Lf_core.Schedule.t ->
  buffers
(** Execute the schedule natively: worker [w] of the pool executes
    processor [w]'s box list in each phase, with a spin barrier
    between phases and between steps.  [pool] must have exactly
    [nprocs] workers (raises [Invalid_argument] otherwise); without
    one, a fresh pool of [nprocs] domains is created and shut down.
    [steps] (default 1) repeats the whole schedule, like
    {!Lf_core.Schedule.execute}.  Raises {!Lf_ir.Interp.Out_of_bounds}
    before executing anything if a subscript leaves its array. *)

val run_into :
  ?steps:int -> ?pool:Lf_parallel.Pool.t -> buffers -> Lf_core.Schedule.t ->
  unit
(** {!run} onto existing buffers (not re-initialised: callers reset
    explicitly, so the compile-once / execute-many measurement loop is
    possible).  The buffers must have been created for the schedule's
    program: raises [Invalid_argument] if an array's buffer has another
    size. *)

val verify :
  ?init:(string -> int -> float) ->
  ?steps:int ->
  ?pool:Lf_parallel.Pool.t ->
  Lf_core.Schedule.t ->
  (unit, string) result
(** Execute natively and compare every array element against the
    serial reference interpreter, bit for bit.  [Error] describes the
    first mismatching element, or the out-of-range subscript that
    stopped the run. *)

type timing = {
  t_measure : Bench_timer.measurement;
  t_checksum : float;  (** checksum after the last repetition *)
  t_nprocs : int;
  t_steps : int;
}

val measure :
  ?policy:Bench_timer.policy ->
  ?steps:int ->
  ?pool:Lf_parallel.Pool.t ->
  Lf_core.Schedule.t ->
  timing
(** Measured wall-clock of the native execution under the policy's
    warmup/min-of-k/outlier rules.  The nest bodies are compiled once;
    each repetition resets the buffers (untimed) and times only the
    parallel execution.  Domain spawn/join stays outside the timed
    region when [pool] is supplied — pass one for barrier-granularity
    numbers. *)
