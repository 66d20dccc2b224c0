(** Busy-waiting barrier for latency-sensitive native execution.

    In native execution a barrier separates phases that can be
    microseconds long, so parking waiters on a condition variable
    would let a futex round trip dominate the measurement.  A spin
    barrier keeps arrivals on-core: waiters poll a generation counter
    with {!Domain.cpu_relax} until the last arrival flips it.

    The party count is fixed at creation: native runs know their
    processor count up front.  No observation sink either — this
    barrier exists to be timed, and counting arrivals would perturb
    exactly what the measurement harness is trying to read. *)

type t

val create : int -> t
(** [create parties]; raises [Invalid_argument] when [parties <= 0]. *)

val parties : t -> int

val wait : t -> unit
(** Spin until all [parties] participants have arrived; reusable
    across any number of generations.  Waiters poll on-core for a
    bounded budget, then back off to [Unix.sleepf 1e-6] per probe,
    which on Linux sleeps for at least the thread's timer slack (50 µs
    by default) — so more parties than cores degrades to scheduler
    granularity instead of livelocking, and on a big enough machine
    the fast path never issues a syscall. *)
