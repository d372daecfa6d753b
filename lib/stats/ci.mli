(** Confidence intervals.

    Wilson score intervals for proportions: what the
    reachability-probability estimates report, since success counts near
    0 or [trials] are common. *)

type interval = { lo : float; hi : float }

val z_of_confidence : float -> float
(** [z_of_confidence c] is the two-sided normal critical value for
    confidence level [c] (e.g. [1.96] for [0.95]).  Supported levels:
    0.80, 0.90, 0.95, 0.98, 0.99, 0.999; other inputs fall back to a
    rational approximation of the normal quantile. *)

val wilson : ?confidence:float -> trials:int -> int -> interval
(** [wilson ~trials successes] is the Wilson score interval for a
    binomial proportion.
    @raise Invalid_argument if [trials <= 0] or [successes] out of range. *)
