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
    stream reads a label array, one label per edge, and the whole
    stream's offsets, counted when the network was built: a band pass
    writes each arc straight to its final slot.

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

val label_at : view -> int -> int
(** [label_at v i] is the label of arc [i]: a binary search on [off].
    @raise Invalid_argument unless [0 <= i < Array.length v.arcs]. *)

type t

val derived : Sgraph.Graph.t -> labels:Labels.t -> lifetime:int -> t
(** The stream of a derived labelling.  No rolls happen here; the
    first {!extend} builds the first prefix.
    @raise Invalid_argument if [lifetime < 1] or the graph has more
    than [2^arc_shift] vertices. *)

val stored :
  Sgraph.Graph.t -> label:int array -> off:int array -> lifetime:int -> t
(** [stored g ~label ~off ~lifetime] is the stream of a one-label-per-
    edge network: [label.(e)] is edge [e]'s label, in [1..lifetime],
    and [off] ([lifetime + 2] words) the whole stream's group offsets
    for those labels, exactly as a view's [off] ({!view}).  Both are
    trusted, not checked, and both are kept: every band pass reads
    [label], so the caller must not mutate either afterwards.  Nothing
    is placed here; the first {!extend} builds the first prefix.
    @raise Invalid_argument if [lifetime < 1], on array lengths other
    than [m g] and [lifetime + 2], or on a graph of more than
    [2^arc_shift] vertices. *)

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
    stands; a {!derived} one follows the doubling schedule. *)
