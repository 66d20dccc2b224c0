(** Native multicore execution of schedules: the same phase/box
    structure the simulator interprets, compiled to machine code and
    run on the host's cores — float64 {!Bigarray} buffers, one domain
    per simulated processor from a {!Lf_parallel.Pool} (the caller
    doubles as worker 0), a {!Lf_parallel.Spin_barrier} between phases
    and steps.  Where {!Lf_core.Codegen} renders the iteration
    structure as C-like text, this module compiles it.

    {b Compiled nests.}  Nest [k] of a program becomes
    [void lf_nest<k>(double *const *arrays, const long *lo,
    const long *hi)], which runs level [l] over [lo[l] .. hi[l]] and,
    at each point, the statements in body order: the interpreter's
    point order, so a dependence carried by any loop is kept.  Guards
    become [if]s, subscripts flat row-major offsets, and constant
    subtrees their IEEE-754 bits, folded by the interpreter's own
    evaluator and bound once per nest, before the loops.  The C
    compiler ocamlopt uses builds the program once per process
    ([-O2 -fvect-cost-model=dynamic -ffp-contract=off -fPIC -shared],
    in a temporary directory that is always removed), and the loaded
    object is kept in memory by the digest of its source: box ranges
    are arguments, so every schedule of a program shares it.  Workers
    call it once per box with the runtime lock released.

    {b Vectorized.}  The dynamic cost model lets the C compiler
    vectorize the innermost loop (SSE2 on x86-64, whose per-lane
    operations are the scalar IEEE-754 ones); [-O2]'s own cost model
    vectorizes none of the benchmark's nests.  Never [-O3]: on GCC 12
    its loop distribution, with this cost model, miscompiles a nest
    whose inner loop carries dependences (test/programs/distribute.loop).
    A nest that negates a value read from an array keeps [lf_neg]'s
    [asm] in its loop body and stays scalar.

    {b Bit-identity.}  Each element is produced by the same statement
    instances applying the same IEEE-754 operations to the same
    operands as {!Lf_ir.Interp}: no contraction or reassociation
    ([-ffp-contract=off], never [-ffast-math]), and constants and
    negations reach the C compiler opaque (each constant through an
    empty [asm] before the loops, each negation through one in the
    body), so it cannot turn [-x + y] into [y - x], which differs in
    the sign of a NaN.  Legality (Theorem 1) makes phases
    order-independent across processors, so the final arrays are
    bit-identical to the serial reference — {!verify} checks exactly
    that, and the CI smoke asserts it on every run.  One exception:
    when both operands of an operation are NaN, which of the two comes
    out is the C compiler's choice, since it may commute an addition
    or a multiplication and x86 returns the first operand's NaN; the
    result is a NaN either way, and {!verify}'s comparison
    ({!Lf_ir.Interp.diff}) counts any two NaNs as equal.  DESIGN §11
    has the details.

    {b Bounds.}  Before the parallel region starts, every reference of
    every box is checked per array dimension at the corners of the
    box's (guard-clipped) iteration rectangle — exact, since the
    subscripts are affine — so the nests use unchecked access and an
    out-of-range subscript raises {!Lf_ir.Interp.Out_of_bounds} (array,
    dimension and index) on the caller, before any worker runs.

    {b What is deliberately absent.}  No layout: simulated address
    placement ({!Lf_core.Partition}) maps arrays into a modelled
    memory; natively each array is one Bigarray and the host's real
    cache does what it does.  No result store: measured wall-clock is
    host-dependent and nondeterministic, so it is never persisted in
    [_lf_cache/] (see DESIGN §7/§11 and {!Lf_batch.Batch.Store}). *)

exception Compile_failed of string
(** No C compiler could build a program's nests: the message names the
    compiler and gives the first line of its error output (or why it
    could not be started).  Raised by {!create} and {!run_into} before
    any worker starts; {!verify} returns it as [Error]. *)

type buffers
(** Float64 storage for every declared array of one program, and the
    program's compiled nests. *)

val create :
  ?init:(string -> int -> float) -> Lf_ir.Ir.program -> buffers
(** Compile the program's nests (unless this process already has) and
    allocate and initialise all declared arrays ([init] defaults to
    {!Lf_ir.Interp.default_init}, the reference initialiser), the
    arrays while the C compiler runs. *)

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
    possible).  It runs the buffers' compiled nests, and compiles only
    when the schedule's program is another one.  Every array of that
    program must have a buffer of its size: raises [Invalid_argument]
    otherwise. *)

val verify :
  ?init:(string -> int -> float) ->
  ?steps:int ->
  ?pool:Lf_parallel.Pool.t ->
  Lf_core.Schedule.t ->
  (unit, string) result
(** Execute natively and compare every array element against the
    serial reference interpreter, bit for bit.  [Error] describes the
    first mismatching element, the out-of-range subscript that stopped
    the run, or the failed compile ({!Compile_failed}). *)

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
