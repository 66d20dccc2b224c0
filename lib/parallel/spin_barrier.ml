(* Sense-reversing spin barrier (see spin_barrier.mli).

   [generation] counts completed barrier episodes.  An arrival
   increments [count]; the last arrival resets [count] and bumps
   [generation], releasing the spinners of this generation.  The reset
   happens before the bump, and OCaml atomics are sequentially
   consistent, so a worker racing into the next episode can never
   observe the stale count of the previous one. *)

type t = {
  n_parties : int;
  count : int Atomic.t;
  generation : int Atomic.t;
}

let create parties =
  if parties <= 0 then invalid_arg "Spin_barrier.create: parties <= 0";
  {
    n_parties = parties;
    count = Atomic.make 0;
    generation = Atomic.make 0;
  }

let parties t = t.n_parties

(* Pure spinning livelocks when the machine has fewer cores than
   parties: the spinner burns the whole OS timeslice the releasing
   domain is waiting for, turning a microsecond barrier into
   milliseconds.  After a bounded spin, fall back to a 1 µs sleep per
   probe, which Linux stretches to the thread's timer slack (50 µs by
   default) — on an uncontended machine the budget is never exhausted
   and the fast path stays syscall-free. *)
let spin_budget = 4096

let wait t =
  let gen = Atomic.get t.generation in
  if Atomic.fetch_and_add t.count 1 = t.n_parties - 1 then begin
    Atomic.set t.count 0;
    Atomic.incr t.generation
  end
  else begin
    let spins = ref 0 in
    while Atomic.get t.generation = gen do
      if !spins < spin_budget then begin
        incr spins;
        Domain.cpu_relax ()
      end
      else Unix.sleepf 1e-6
    done
  end
