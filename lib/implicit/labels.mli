(** Derived temporal labels: [(seed, a, r)] instead of an array.

    Edge [e]'s labels are the [r] uniform draws over [{1..a}] produced
    by hashing [(seed, e, k)] with SplitMix64 — recomputed on every
    query in O(r) time and O(1) memory, never stored.  Roll 0 of edge
    [e] is the [(e+1)]-th output of the SplitMix64 stream seeded at
    [seed].

    Site independence: a roll depends only on [(seed, edge, k)], never
    on evaluation order or domain — which is why a derived labelling is
    byte-identical to the materialized array of the same rolls, and why
    consumers stay deterministic at any [--jobs].

    Queries follow {!Temporal.Label}'s set semantics: the [r] rolls form
    a multiset and queries see its distinct support, exactly what
    [Label.of_array] would keep after sort + dedup. *)

type t

val make : seed:int64 -> a:int -> r:int -> t
(** @raise Invalid_argument unless [a >= 1] and [r >= 1]. *)

val alpha : t -> int
val rolls_per_edge : t -> int

val roll : t -> edge:int -> k:int -> int
(** The [k]-th raw roll of [edge], in [{1..a}].  Pure. *)

val has : t -> edge:int -> int -> bool
(** Does some roll of [edge] equal the given label? *)

val next_after : t -> edge:int -> int -> int
(** Smallest roll of [edge] strictly greater than the bound, or
    [max_int] if none — the crossing query of the kernel interface. *)

val next_in : t -> edge:int -> lo:int -> hi:int -> int
(** Smallest roll in [(lo, hi]], or [max_int]. *)

val size : t -> edge:int -> int
(** Number of distinct rolls of [edge]. *)

val iter : t -> edge:int -> (int -> unit) -> unit
(** Distinct rolls of [edge], ascending — the order a [Label.t] would
    present them in. *)

val fill_sorted : t -> edge:int -> int array -> int
(** [fill_sorted t ~edge buf] writes the sorted distinct rolls of
    [edge] into [buf] (length [>= r]) and returns their count.
    Allocation-free; the stream builder's per-edge workhorse.  Does not
    tick the query probes — bulk passes account via
    {!note_bulk_rolls}. *)

val note_bulk_rolls : int -> unit
(** Add to the [implicit.label_rolls] probe (gated on [Obs.Control]) —
    used by bulk passes that roll many edges outside the per-query
    accounting. *)
