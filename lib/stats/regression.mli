(** Ordinary least squares on one predictor.

    The experiments test growth laws of the form
    [y ≈ alpha + beta·f(n)] with [f = ln], [f = id], etc.; this module fits
    the line and reports the goodness of fit, which is how "the temporal
    diameter is Θ(log n)" becomes a checkable number. *)

type fit = {
  alpha : float;  (** intercept *)
  beta : float;  (** slope *)
  r2 : float;  (** coefficient of determination; 1 for a perfect line *)
  n : int;  (** number of points *)
}

val pp_fit : Format.formatter -> fit -> unit

val fit : (float * float) list -> fit
(** [fit points] is the least-squares line through [points].
    @raise Invalid_argument with fewer than two distinct x-values. *)

val fit_arrays : float array -> float array -> fit
(** Same on parallel arrays.
    @raise Invalid_argument if lengths differ. *)

val fit_log : (float * float) list -> fit
(** [fit_log points] fits [y = alpha + beta·ln x] — the paper's Θ(log n)
    shape test. *)
