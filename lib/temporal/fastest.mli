(** Fastest journeys: minimum time in transit.

    A fastest [(s,v)]-journey minimises [arrival − departure] (departure
    = its first label); the third member of the Bui-Xuan–Ferreira–Jarry
    taxonomy [6].  On the hostile clique this answers "how long is the
    message actually in flight", as opposed to "how early does it land"
    ({!Foremost}) or "how few exposures does it risk" ({!Shortest}).

    Computed by running the foremost sweep once per candidate departure
    time — the distinct labels on arcs leaving the source — and keeping,
    per target, the best [arrival − departure].  Cost O(Δ_s · M) where
    [Δ_s] is the number of distinct labels leaving [s]. *)

type result

val run : Tgraph.t -> int -> result
(** @raise Invalid_argument on a bad source. *)

val duration : result -> int -> int option
(** Minimum transit time to the vertex; [Some 0] for the source itself,
    [None] if unreachable. *)

val window : result -> int -> (int * int) option
(** [(departure, arrival)] of a fastest journey to the vertex. *)

val max_duration : result -> int option
(** Worst transit time over all vertices; [None] if some vertex is
    unreachable. *)

val journey_to : Tgraph.t -> result -> int -> Journey.t option
(** Witness journey achieving {!duration}.

    Test support: test_taxonomy checks through it that {!run}'s durations
    have witness journeys. *)
