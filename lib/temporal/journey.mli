(** Temporal paths, a.k.a. journeys (paper, Definition 2).

    A journey is a sequence of time edges
    [(u, u1, l1), (u1, u2, l2), ..., (u_{k-1}, v, l_k)] with strictly
    increasing labels; its arrival time is [l_k].  Journeys are walks —
    vertices may repeat — exactly as the paper's definition permits. *)

type step = { src : int; dst : int; label : int }

type t = step list
(** In travel order; the empty journey stays at its source. *)

val target : t -> int option

val arrival : t -> int option
(** Label of the last step; [None] for the empty journey. *)

val departure : t -> int option
(** Label of the first step.

    Test support: tests read the witnesses that [Foremost], [Fastest] and
    [Shortest] build through it. *)

val length : t -> int
(** Number of time edges used.

    Test support: tests read the witnesses that [Foremost], [Fastest] and
    [Shortest] build through it. *)

val vertices : t -> int list
(** Visited vertices in order, [src :: dst of every step]; empty for the
    empty journey.

    Test support: tests read the witnesses that [Foremost], [Fastest] and
    [Shortest] build through it. *)

val strictly_increasing : t -> bool
(** Labels strictly increase along the journey. *)

val connected : t -> bool
(** Each step departs from the previous step's destination. *)

val valid_in : Tgraph.t -> t -> bool
(** The journey is structurally sound *and* every step crosses an arc of
    the network at one of its labelled times. *)

val is_journey : Tgraph.t -> source:int -> target:int -> t -> bool
(** {!valid_in}, anchored at the given endpoints.  The empty journey is a
    valid [(v, v)]-journey.

    Test support: the validity oracle that the tests of every
    journey-building algorithm ([Foremost], [Fastest], [Shortest],
    [Restless], [Expansion]) check their witnesses with. *)

val pp : Format.formatter -> t -> unit
