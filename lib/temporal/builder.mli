(** Incremental construction of temporal networks.

    [Tgraph.create] wants the whole structure up front; the builder
    accumulates edges and labels in any order (merging labels when an
    edge is mentioned twice) and freezes into an immutable network. *)

type t

val create : Sgraph.Graph.kind -> n:int -> t
(** @raise Invalid_argument if [n < 0]. *)

val add_edge : t -> int -> int -> int list -> unit
(** [add_edge b u v labels] declares the edge (if new) and adds the
    labels to its set; an undirected builder identifies [(u,v)] and
    [(v,u)].
    @raise Invalid_argument on self-loops, bad endpoints, or
    non-positive labels. *)

val add_label : t -> int -> int -> int -> unit
(** [add_label b u v l] is [add_edge b u v [l]]. *)

val edge_count : t -> int
(** Test support: test_ops checks how {!add_edge} and {!add_label} merge
    edges through it. *)

val label_count : t -> int
(** Test support: test_ops checks how {!add_edge} and {!add_label} merge
    label sets through it. *)

val build : ?lifetime:int -> t -> Tgraph.t
(** Freeze.  The lifetime defaults to the largest label used (at least
    1); the builder remains usable afterwards.
    @raise Invalid_argument if an explicit lifetime is below some
    label. *)
