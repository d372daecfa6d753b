(** Transformations of temporal networks.

    The algebra a user needs to slice and re-time availability
    schedules.  Two of these double as executable duality lemmas,
    property-tested in the suite:

    - {!reverse_time}: mapping every label [l ↦ a+1-l] and flipping arc
      directions turns [(u,v)]-journeys into [(v,u)]-journeys, so
      foremost distances in the reversal encode latest-departure times
      in the original;
    - {!scale}: multiplying labels by [k >= 1] multiplies every temporal
      distance by exactly... nothing so simple — it maps a journey with
      arrival [l] to one with arrival [k·l], so [δ' = k·δ] on the nose. *)

val restrict_window : Tgraph.t -> lo:int -> hi:int -> Tgraph.t
(** Keep only labels in the inclusive window [\[lo, hi\]]; lifetime
    unchanged.
    @raise Invalid_argument if [lo < 1]. *)

val shift : Tgraph.t -> int -> Tgraph.t
(** [shift net d] adds [d] to every label (lifetime becomes
    [lifetime + d]).
    @raise Invalid_argument if some label would leave [>= 1].

    Test support: test_crosschecks checks through it that [Profile]
    arrivals commute with a time shift. *)

val scale : Tgraph.t -> int -> Tgraph.t
(** [scale net k] multiplies every label and the lifetime by [k >= 1].
    @raise Invalid_argument if [k < 1].

    Test support: test_ops checks through it that [Foremost] distances
    scale with the labels. *)

val reverse_time : Tgraph.t -> Tgraph.t
(** Labels [l ↦ lifetime + 1 - l]; directed networks also get their arcs
    reversed (undirected ones are their own arc-reversal).

    Test support: test_ops checks [Reverse_foremost] against foremost
    arrivals in reversed time through it. *)

val union : Tgraph.t -> Tgraph.t -> Tgraph.t
(** Per-edge union of the label sets of two networks over the *same*
    underlying graph (same kind, vertex count and edge list); the
    lifetime is the max of the two.
    @raise Invalid_argument if the structures differ. *)

val induced : Tgraph.t -> int list -> Tgraph.t * int array
(** [induced net vertices] keeps the given vertices (deduplicated) and
    the edges among them; returns the subnetwork and the mapping from
    new index to original vertex.
    @raise Invalid_argument on out-of-range vertices or an empty list. *)
