(** Percentile bootstrap confidence intervals.

    Nonparametric companion to {!Ci}: resample the observed sample with
    replacement, recompute the statistic, and read the interval off the
    percentiles of the resampled distribution.  Used where normality is
    dubious — e.g. instance temporal diameters, which are maxima and
    skew right.  Deterministic given the caller's RNG stream. *)

val interval :
  ?confidence:float ->
  ?resamples:int ->
  ?widen:float ->
  statistic:(float array -> float) ->
  Prng.Rng.t ->
  float array ->
  Ci.interval
(** [interval ~statistic rng xs] is the percentile bootstrap CI of
    [statistic xs] (default confidence 0.95, 1000 resamples).
    [widen] (default 1., must be >= 1.) scales the interval's
    half-width around its midpoint — degraded runs pass the
    [Sim.Supervise] factor here to own up to dropped trials; [1.]
    leaves the interval bit-identical to the unwidened one.
    @raise Invalid_argument on an empty sample, bad confidence,
    non-positive resample count, or [widen < 1]. *)

val mean_interval :
  ?confidence:float ->
  ?resamples:int ->
  ?widen:float ->
  Prng.Rng.t ->
  float array ->
  Ci.interval
