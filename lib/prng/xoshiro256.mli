(** xoshiro256** pseudo-random generator (Blackman & Vigna, 2018).

    The workhorse generator used by {!Rng}: fast, 256 bits of state, passes
    the standard statistical batteries.  Seeded via {!Splitmix64} so that
    nearby integer seeds still give unrelated streams. *)

type t
(** Mutable generator state: four 64-bit words held unboxed, so stepping
    the generator allocates nothing. *)

val create : int -> t
(** [create seed] seeds the four state words from a SplitMix64 stream. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] builds a generator from raw state words.  The
    state must not be all-zero.
    @raise Invalid_argument on the all-zero state. *)

val copy : t -> t
(** [copy t] is an independent clone replaying [t]'s future output. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output.
    Allocates the boxed result; {!next_in} does not. *)

val next_in : t -> int -> int
(** [next_in t bound] is uniform in [\[0, bound)]: the top 62 bits of
    one output, rejected and redrawn when they fall in the tail that
    would bias the remainder.  At a power-of-two bound the remainder is
    a mask, [v land (bound - 1)], which is the same value under the
    same rejection rule; any other bound divides.  Allocation-free.
    @raise Invalid_argument if [bound <= 0]. *)

val fill_in :
  t -> int -> base:int -> cut:int -> Cells.t -> int array * int
(** [fill_in t bound ~base ~cut c] sets cell [i] of [c] to [base +
    next_in t bound] for [i] ascending: the same draws, and the same
    final state, as that loop.  It also lists the indices whose value
    is at most [cut], ascending, as [(pos, k)]: the list is [pos.(0
    .. k - 1)] ({!Rng.fill_int} gives its sizing).

    The draws run in a C kernel, in stretches of at most 2^16: the
    xoshiro256** step, {!next_in}'s rejection rule and remainder (the
    mask at a power-of-two bound), the state in registers for the
    whole stretch, and the list written without a branch.  A stretch
    ends before the list can fill, and the list grows between
    stretches.  Allocates the list and its result pair, and nothing
    else.
    @raise Invalid_argument if [bound <= 0], or unless every value
    fits a cell: [0 <= base] and [base + bound - 1 <= Cells.max_value]. *)
