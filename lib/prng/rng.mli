(** Unified random source for the whole repository.

    Wraps {!Xoshiro256} behind the operations the experiments need, and adds
    {!split}: deriving an independent child stream from a parent.  Splitting
    is what makes trial-parallel experiments reproducible — trial [i] always
    receives the same stream no matter how many draws other trials made. *)

type t
(** A mutable stream of pseudo-random values. *)

val create : int -> t
(** [create seed] builds a stream deterministically from [seed]. *)

val copy : t -> t
(** [copy t] clones the stream state. *)

val split : t -> t
(** [split t] draws once from [t] and uses the value to seed a fresh,
    statistically independent child stream. *)

val split_n : t -> int -> t array
(** [split_n t k] is [k] independent child streams. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  A power-of-two bound
    takes its remainder by a mask instead of a divide: the same value
    ({!Xoshiro256.next_in}).
    @raise Invalid_argument if [bound <= 0]. *)

val fill_int : t -> base:int -> int -> cut:int -> Cells.t -> int array * int
(** [fill_int t ~base bound ~cut c] sets cell [i] of [c] to [base +
    int t bound] for every [i < Cells.length c], ascending: draw for
    draw the values of that loop, and the same state after it.  It
    returns [(pos, k)]: [pos.(0 .. k - 1)] are the indices [i] whose
    value is [<= cut], ascending, and [pos] may be longer than [k].  A
    [cut] below [base] lists nothing and allocates no list.

    The bulk form for fills such as one label per edge: the draws run
    in a C kernel ({!Xoshiro256.fill_in}) with the generator state in
    registers instead of a load and store per draw, each value takes
    two bytes, and a caller that needs the small values again (the
    first label band) gets their positions without a second pass.  With [len = Cells.length c], the
    list starts at the expected count, [len * (cut - base + 1) /
    bound] rounded up, plus a sixteenth, capped at [len], and doubles
    when it fills with draws left.  The fill allocates that list and
    its result pair, nothing else: the caller owns the cells.
    @raise Invalid_argument if [bound <= 0], or unless every value
    fits a cell: [0 <= base] and [base + bound - 1 <= 65535]
    ([Cells.max_value]). *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)] with 53 bits of precision. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)
