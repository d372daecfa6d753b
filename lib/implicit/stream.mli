(** The time-edge stream layout, and the lazily-materialized prefix of
    a stream.

    {b Layout.}  Both backends hold a stream as a {!view}: one packed
    word per arc, [(src lsl arc_shift) lor dst], in [arcs], grouped by
    label, and an offsets array [off] of [bound + 2] words: label [l]'s
    group is [arcs.(off.(l)) .. arcs.(off.(l+1) - 1)], and
    [off.(bound + 1)] is the stream length.  Labels ascend; ties are in
    emission order (edge id ascending, u->v before v->u).  This module
    alone decides the packing; kernels decode with [lsr arc_shift] and
    [land arc_mask], binding both once per call.

    {b Prefixes.}  A {!t}'s view with [bound = B] holds exactly the
    arcs with label [<= B], byte-identical to the corresponding prefix
    of the eager counting-sorted stream.  Views for growing bounds are
    byte prefixes of each other, [arcs] and [off] alike, so kernels
    keep their stream indices across {!extend} and resume scanning
    exactly where they stopped.

    {b Sources.}  A {!derived} stream re-rolls its labels from
    {!Labels} for every band and sorts the band's arcs.  A {!stored}
    stream reads its labels from two-byte cells ({!Prng.Cells}), one
    per edge.  Given the list of
    the edges in its first band, it places that band from the list
    alone; any other band pass first counts the whole stream's offsets,
    once, then writes each arc straight to its final slot.

    Views are immutable and published through an [Atomic]; builders
    serialize on a mutex and follow a fixed doubling bound schedule, so
    each prefix step is built exactly once per instance regardless of
    how many domains race — the [implicit.label_rolls] probe stays
    deterministic at any [--jobs]. *)

val arc_shift : int
(** [Sys.int_size / 2]: the bits each endpoint takes in a packed arc. *)

val arc_mask : int
(** [(1 lsl arc_shift) - 1]. *)

val pack : int -> int -> int
(** [pack src dst] is the arc's word. *)

val arc_src : int -> int
val arc_dst : int -> int

val check_vertices : string -> Sgraph.Graph.t -> unit
(** [check_vertices name g] accepts graphs of at most [2^arc_shift]
    vertices, the most a packed arc can name.
    @raise Invalid_argument, prefixed with [name], on a larger graph. *)

type view = {
  bound : int;  (** every arc with label [<= bound] is present *)
  complete : bool;  (** [bound >= lifetime]: this is the whole stream *)
  arcs : int array;  (** packed arcs, label groups in label order *)
  off : int array;
      (** [bound + 2] words: label [l] is [arcs.(off.(l) .. off.(l+1) - 1)] *)
}

val group_starts : int array -> lo:int -> hi:int -> unit
(** [group_starts off ~lo ~hi] turns arc counts into offsets in place:
    with [off.(l + 1)] holding label [l]'s count for [lo < l <= hi] and
    [off.(lo + 1)] already an offset, each [off.(l + 1)] becomes the
    end of label [l]'s group, so [off.(l)] is its start. *)

val label_at : view -> int -> int
(** [label_at v i] is the label of arc [i]: a binary search on [off].
    @raise Invalid_argument unless [0 <= i < Array.length v.arcs]. *)

type t

val derived : Sgraph.Graph.t -> labels:Labels.t -> lifetime:int -> t
(** The stream of a derived labelling.  No rolls happen here; the
    first {!extend} builds the first prefix.
    @raise Invalid_argument if [lifetime < 1] or the graph has more
    than [2^arc_shift] vertices. *)

val list_bound : lifetime:int -> int
(** The label bound of the first-band list a {!stored} stream of this
    lifetime takes: the first band's bound, 64, when that band is
    expected to hold at most an eighth of the stream ([lifetime >= 8 *
    64 = 512]), else [0]: no list.  Below that lifetime a reader of
    the whole stream would pay for more unused positions than a pass
    over the labels saves. *)

val stored :
  Sgraph.Graph.t ->
  label:Prng.Cells.t ->
  first:(int array * int) option ->
  lifetime:int ->
  t
(** [stored g ~label ~first ~lifetime] is the stream of a one-label-
    per-edge network: cell [e] of [label], [Prng.Cells.get label
    (2 * e)], is edge [e]'s label, in [1..lifetime].  [first], given
    only when [list_bound ~lifetime > 0], is [Some (pos, k)] with
    [pos.(0 .. k - 1)] the ascending ids of exactly the edges labelled
    [<= list_bound ~lifetime]; [None] means no list, which is not the
    same as an empty one.

    Trusted, not checked: every label is in range, and the list is
    exactly that.  A wrong label or list publishes wrong views; a
    listed edge id outside [0 .. m g - 1] raises [Invalid_argument]
    from the band pass that reads it.  Both the cells and the list are
    kept: the first {!extend} places the first band from the list
    alone and drops it; every other band pass reads the cells, so the
    caller must not write either afterwards.  The whole stream's
    offsets are counted, once and under the builder lock, by the first
    band pass that needs them: a band past the first, a
    {!force_complete}, or a first band without a list.  Nothing is
    placed here.
    @raise Invalid_argument if [lifetime < 1], on other than [m g]
    cells, on a list where {!list_bound} gives none or whose length is
    outside its array, or on a graph of more than [2^arc_shift]
    vertices. *)

val view : t -> view
(** The currently published prefix (initially empty with [bound = 0]).
    Lock-free.  A kernel reads its arrays and its bound from one view:
    two separate reads may straddle a publish. *)

val extend : t -> past:int -> bool
(** [extend t ~past] ensures the published prefix reaches strictly past
    bound [past] (or is complete).  Returns [false] iff the stream is
    complete and holds nothing beyond [past] — i.e. there is nothing
    left to scan for a caller that has consumed a view with that
    bound. *)

val force_complete : t -> view
(** Extend to the full lifetime and return the complete stream.  A
    {!stored} stream gets there in one band pass from wherever it
    stands, ignoring a first-band list it has not used; a {!derived}
    one follows the doubling schedule. *)

val offset_counts : t -> int
(** How many times a {!stored} stream has counted the whole stream's
    offsets: 0 until a band pass needs them, then 1 however many
    domains raced to build.  Always 0 on a {!derived} stream.

    Test support: [kernel.stored] checks through it that racing band
    passes of a {!stored} stream count its offsets once. *)
