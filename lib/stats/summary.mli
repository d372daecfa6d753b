(** Streaming univariate summary statistics (Welford's algorithm).

    Numerically stable single-pass mean/variance with min/max tracking;
    the accumulator every Monte-Carlo experiment feeds its per-trial
    measurements into. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit

val count : t -> int

val mean : t -> float
(** Mean of the observations; [nan] if empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float

val stderr_mean : t -> float
(** Standard error of the mean, [stddev / sqrt count]. *)

val min : t -> float
(** [nan] if empty. *)

val max : t -> float
(** [nan] if empty. *)

val of_array : float array -> t
(** Test support: builds, through {!add}, the summaries on which
    test_stats checks {!mean}, {!variance}, {!min} and {!max}. *)

val pp : Format.formatter -> t -> unit
