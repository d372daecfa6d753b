(** Two-byte cells: a flat array of unsigned 16-bit ints, cell [i] at
    byte [2 i] of a [Bytes.t], native-endian.

    The layout of a single-label network's labels, one cell per edge:
    {!Rng.fill_int} writes the cells, [Implicit.Stream] and
    [Temporal.Tgraph] read them.  A cell holds [0 .. max_value], so a
    label above 65535 has no cell.

    The accessors are [external]s so that every reader inlines them:
    under dune's default [-opaque] build nothing inlines across
    modules, and a wrapper function would cost a call per cell.  They
    take the {e byte} offset, [2 i] for cell [i].  [get] checks it, for
    readers given an index from outside; the [unsafe_] forms, for loops
    whose offsets are in range by construction, do not.  Every writer
    is such a loop. *)

type t

val max_value : int
(** [65535], the largest value a cell holds. *)

val create : int -> t
(** [create len] is [len] cells, uninitialised: the caller writes every
    cell before anything reads it.
    @raise Invalid_argument if [len < 0] or [2 len] exceeds
    [Sys.max_string_length]. *)

val length : t -> int
(** The number of cells. *)

external get : t -> int -> int = "%caml_bytes_get16"
(** [get c b] is the cell at byte [b]: cell [i] is [get c (2 * i)].
    @raise Invalid_argument unless [0 <= b] and [b + 1 < 2 * length c]. *)

external unsafe_get : t -> int -> int = "%caml_bytes_get16u"
(** {!get} without the check. *)

external unsafe_set : t -> int -> int -> unit = "%caml_bytes_set16u"
(** [unsafe_set c b x] stores the low 16 bits of [x] in the cell at
    byte [b], unchecked: [b] must be an offset {!get} accepts. *)
