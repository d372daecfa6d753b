(** Foremost journeys (paper, Definition 3): earliest-arrival computation.

    One pass over the time-edge stream in non-decreasing label order:
    a time edge [(u, v, l)] improves [v] whenever [u] is already reached
    strictly before [l] (labels along a journey must strictly increase).
    A single pass is exact precisely because any journey's labels
    increase, so its steps appear in stream order.  Cost: O(M) per source
    over the packed stream built once by {!Tgraph.create}'s counting
    sort, walked one label group at a time from the start time; the
    early exit is tested per arc, so the sweep can stop inside a group.
    A predecessor link is a stream index, which {!Tgraph.time_edge}
    decodes. *)

type result
(** Earliest arrivals out of one source, with predecessor links. *)

val run : ?start_time:int -> Tgraph.t -> int -> result
(** [run ?start_time net s] computes earliest arrivals for journeys
    departing at time [>= start_time] (default [1]).
    @raise Invalid_argument on a bad source or [start_time < 1]. *)

val arrivals_borrowed : ?start_time:int -> Tgraph.t -> int -> int array
(** Same sweep into the calling domain's {!Workspace} arrival slot: no
    allocation, no predecessor links.  Only entries [0 .. n-1] are
    meaningful (the array may be longer), and they stay valid only until
    the next temporal sweep on this domain — copy what must escape.
    The all-pairs and estimator loops use this to run n sweeps with
    zero per-source allocation.
    @raise Invalid_argument on a bad source or [start_time < 1]. *)

val distance : result -> int -> int option
(** Temporal distance δ(s, v): [Some 0] for the source itself, [Some l]
    for the earliest arrival label otherwise, [None] if unreachable. *)

val arrival_array : result -> int array
(** Raw arrivals; [max_int] marks unreachable, and the source holds
    [start_time - 1] (its "already there" time). *)

val reachable_count : result -> int
(** Vertices with a journey from the source, the source included. *)

val max_distance : result -> int option
(** Temporal eccentricity of the source: max δ(s, v) over all [v];
    [None] if some vertex is unreachable. *)

val journey_to : Tgraph.t -> result -> int -> Journey.t option
(** Reconstruct a foremost journey to the vertex by predecessor links;
    [Some []] for the source itself, [None] if unreachable.  The result
    always satisfies {!Journey.is_journey} and arrives at δ(s, v). *)

val brute_force_distance : Tgraph.t -> ?start_time:int -> int -> int -> int option
(** Reference implementation: exhaustive search over all journeys (label-
    respecting DFS).  Exponential in principle, fine on the small
    instances the tests use; the property tests pin {!run} against it.

    Test support: the oracle the property tests check {!run} against. *)
