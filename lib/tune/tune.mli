(** `lf_tune` entry point: simulator-guided autotuning of the joint
    transformation space (schedule variant, fusion clustering, strip
    size, data layout) for one parallel loop sequence on one machine
    model.

    [tune] wraps {!Search.run}: it enumerates {!Space.enumerate}, prunes
    with the analytic tier of {!Cost}, exact-evaluates survivors on the
    {!Lf_machine.Exec} simulator (memoised), and returns the best
    configuration found together with the paper-default reference it is
    guaranteed not to lose to. *)

val tune :
  ?depth:int ->
  ?steps:int ->
  ?cache:Cost.cache ->
  ?opts:Lf_batch.Run_opts.t ->
  ?calibration:Cost.calibration ->
  ?driver:Search.driver ->
  ?objective:Search.objective ->
  ?policy:Lf_native.Bench_timer.policy ->
  ?sweep:bool ->
  machine:Lf_machine.Machine.config ->
  nprocs:int ->
  Lf_ir.Ir.program ->
  (Search.outcome, string) result
(** With [~objective:Wallclock] the deciding tier is real measured
    time on the host's cores rather than simulated cycles — see
    {!Search.run} for the measurement and caching rules. *)

val driver_of_string : string -> (Search.driver, string) result
(** "auto" (the default {!Search.default_driver}), "exhaustive",
    "greedy", "beam", optionally with ":budget" (e.g. "beam:8"). *)

val objective_of_string : string -> (Search.objective, string) result
(** "cycles" (the default) or "wallclock". *)

val improvement_pct : Search.outcome -> float
(** Percent improvement of the tuned configuration over the reference
    (>= 0 by construction), in the outcome's own objective. *)

val pp_outcome : Format.formatter -> Search.outcome -> unit
(** Multi-line report: chosen configuration, its cost (cycles or
    measured seconds, per the outcome's objective), the reference
    configuration and its cost, search statistics. *)

val pp_row : Format.formatter -> Search.outcome -> unit
(** One table row: default cost, tuned cost, gain, chosen config. *)
