(** Time-label sets [L_e ⊆ {1..a}] attached to edges (paper, Definition 1).

    Represented as sorted arrays of distinct positive integers; every
    constructor normalises, so all downstream algorithms may assume the
    invariant. *)

type t = private int array
(** Sorted, duplicate-free, all entries [>= 1]. *)

val empty : t

val of_list : int list -> t
(** Sorts and deduplicates.
    @raise Invalid_argument on a non-positive label. *)

val of_array : int array -> t
(** Same from an array (the input is not mutated). *)

val singleton : int -> t

val range : int -> int -> t
(** [range lo hi] is [{lo, .., hi}] (empty if [hi < lo]).
    @raise Invalid_argument if [lo < 1]. *)

val to_list : t -> int list
val size : t -> int
val is_empty : t -> bool

val max_label : t -> int
(** [0] when empty. *)

val min_label : t -> int
(** [max_int] when empty. *)

val mem : t -> int -> bool
(** Binary search. *)

val any_in : t -> lo:int -> hi:int -> int option
(** Smallest label in [(lo, hi]], if any. *)

val next_after : t -> int -> int
(** [next_after t x] is the smallest label strictly greater than [x] —
    the primitive behind "cross this edge as early as possible after
    arriving at time [x]" — or [max_int] when none: a sentinel kernels
    compare against directly instead of matching an option. *)

val next_in : t -> lo:int -> hi:int -> int
(** Allocation-free {!any_in}: smallest label in [(lo, hi]], [max_int]
    when none. *)

val union : t -> t -> t
val within_lifetime : t -> int -> bool
(** All labels [<= a]? *)

val pp : Format.formatter -> t -> unit
