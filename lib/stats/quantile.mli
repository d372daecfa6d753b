(** Exact quantiles of a finite sample.

    Linear-interpolation quantiles (type-7, the R/NumPy default), computed
    from a sorted copy of the data. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [\[0, 1\]], from a sorted copy of [xs].
    @raise Invalid_argument on empty input or [q] outside [\[0,1\]]. *)

val median : float array -> float
