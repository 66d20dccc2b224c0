(** The unified request-options record.

    [Run_opts.t] names the {e policy} half of the execution options
    once: which engine tier simulates, how many host domains, whether
    and where results persist, the per-job time budget, and an optional
    attribution sink.

    Two kinds of knob deliberately stay out:

    - {e live host resources} — a {!Lf_parallel.Pool.t} or a
      {!Batch.Counters.scope} is a handle, not a policy, so it cannot
      be carried by a value meant to be built once (possibly from the
      environment) and reused; pools and scopes are passed alongside
      ({!Batch.run_with} [?pool ?scope]).
    - {e anything inside the request digest} — machine, variant,
      layout, steps are part of {!Lf_machine.Sim.request} itself.  The
      one exception is [engine]: the engine tier {e is} part of the
      digest, but it is policy (the caller chooses a tier for a whole
      batch), so builders take it from here when constructing requests.

    The record is immutable pure data; the [with_*] combinators return
    updated copies.  {!Batch.run_with}/{!Batch.run_one_with} consume
    it; {!exec} lowers it onto the host-side {!Lf_machine.Exec.opts}
    subset. *)

module Sim = Lf_machine.Sim

(** Where results persist, and whether hits are honoured.  A policy
    names a store {e root}, never holds an open handle — handles are
    memoised per root by {!Batch.store_of_opts} so every consumer of
    the same policy shares one handle (and its hit/lookup stats). *)
type store_policy =
  | Store_off  (** never read or write the persistent store *)
  | Store_in of string option
      (** read hits and persist computed results under this root
          ([None] = {!Batch.Store.default_dir}, i.e. [$LF_CACHE_DIR]
          or [_lf_cache]) *)
  | Store_cold of string option
      (** ignore hits (force recomputation) but still persist, so a
          cold pass warms the store under the same root *)

type t = {
  engine : Sim.mode;
      (** simulation tier for requests built under these options
          (default [Run_compressed], the fast pure engine) *)
  jobs : int option;
      (** host domains; [None] defers to
          {!Lf_machine.Exec.default_jobs} ([LF_JOBS]) at use *)
  store : store_policy;  (** default [Store_in None] *)
  timeout_s : float option;  (** per-job wall-clock budget *)
  sink : Lf_obs.Obs.sink option;  (** passive attribution sink *)
}

val default : t
(** [Run_compressed] engine, default jobs, warm default store, no
    timeout, no sink — the options every CLI subcommand starts from. *)

val make :
  ?engine:Sim.mode ->
  ?jobs:int ->
  ?store:store_policy ->
  ?timeout_s:float ->
  ?sink:Lf_obs.Obs.sink ->
  unit ->
  t

(** {2 Combinators} *)

val with_engine : Sim.mode -> t -> t
val with_jobs : int -> t -> t
val with_store : store_policy -> t -> t
val with_timeout : float -> t -> t
val with_sink : Lf_obs.Obs.sink -> t -> t

val without_store : t -> t
(** Set {!Store_off}. *)

val cold : t -> t
(** Make the current store policy cold: hits ignored, writes kept.
    [Store_off] stays off. *)

(** {2 Accessors} *)

val jobs_or_default : t -> int
(** The effective host-domain count: [jobs] when set, else
    {!Lf_machine.Exec.default_jobs}. *)

val is_cold : t -> bool
val store_enabled : t -> bool

val store_root : t -> string option
(** The store root named by the policy ([None] for the default root
    {e and} for [Store_off] — check {!store_enabled} first). *)

val exec : ?pool:Lf_parallel.Pool.t -> t -> Lf_machine.Exec.opts
(** Lower onto the host-side options subset understood by
    {!Lf_machine.Exec.run_opts}: jobs and sink carry over, [pool] is
    supplied here because it is a live resource (see above). *)

val of_env : ?base:t -> unit -> (t, string) Stdlib.result
(** [base] (default {!default}) overridden by the environment:
    [LF_ENGINE] (["miss-only"]/["runs"]), [LF_COLD] (["1"] or
    ["true"] makes the store policy cold), [LF_STORE] (["off"]
    disables persistence), [LF_TIMEOUT_S] (float seconds).  [LF_JOBS]
    is not read here: its value already feeds
    {!Lf_machine.Exec.default_jobs}, which {!jobs_or_default} consults,
    so the [jobs] field stays [base]'s — one source of truth — and the
    CLI checks it once, for every subcommand, before it runs anything.
    The store root likewise stays [None]:
    [$LF_CACHE_DIR] flows through {!Batch.Store.default_dir}.  A
    malformed value is an [Error] naming the variable, never a silent
    fallback; an unknown engine is [LF_ENGINE=<s>: ] followed by
    {!Lf_machine.Sim.mode_of_string}'s message. *)

val pp : Format.formatter -> t -> unit
