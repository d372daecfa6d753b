(** Fixed-bin histograms over a closed interval.

    Used by the report layer to show distributions of per-trial measurements
    (temporal diameters, arrival times) without a plotting stack. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] covers [\[lo, hi\]] with [bins] equal bins;
    values outside the range are counted in underflow/overflow.
    @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)

val add : t -> float -> unit
val count : t -> int
val underflow : t -> int
val overflow : t -> int

val counts : t -> int array
(** Per-bin counts, length [bins]. *)

val bin_edges : t -> (float * float) array
(** Inclusive-exclusive edges of each bin (last bin closes the interval). *)

val mode_bin : t -> int
(** Index of the fullest bin; [-1] when the histogram is empty. *)

val render : ?width:int -> t -> string
(** Multi-line ASCII rendering, one row per bin. *)
