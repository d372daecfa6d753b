(** Restless journeys: bounded waiting at intermediate vertices.

    A Δ-restless journey may pause at most [delta] time steps between
    consecutive hops: labels satisfy [l_i < l_{i+1} <= l_i + delta].  In
    the hostile-network story, the message cannot sit on a compromised
    relay indefinitely.  Modern temporal-graph theory (Casteigts,
    Himmel, Molter, Zschoche) separates two problems sharply:

    - restless {e walks} (vertex revisits allowed): earliest arrival is
      polynomial — implemented exactly here by a label-ordered sweep
      that keeps, per vertex, the sorted set of distinct arrival times;
    - restless {e simple paths}: NP-hard; an exhaustive reference is
      provided for small networks.

    [delta >= lifetime] recovers ordinary foremost journeys
    (property-tested against {!Foremost}). *)

type result

val run : ?start_time:int -> delta:int -> Tgraph.t -> int -> result
(** Earliest Δ-restless-walk arrivals out of a source.  The source may
    launch at any moment [>= start_time] without waiting restrictions
    (waiting constrains only intermediate pauses).
    @raise Invalid_argument if [delta < 1], a bad source, or
    [start_time < 1]. *)

val distance : result -> int -> int option
(** Earliest restless arrival; [Some 0] at the source, [None] if no
    restless walk reaches the vertex. *)

val reachable_count : result -> int

val journey_to : result -> int -> Journey.t option
(** A witness restless walk arriving at {!distance}; [Some []] at the
    source.  Always satisfies [Journey.is_journey] on the network it was
    computed from, plus the waiting bound ({!is_restless}).

    Test support: test_taxonomy checks through it that {!run}'s distances
    have witness walks. *)

val is_restless : result -> Journey.t -> bool
(** Do consecutive labels of the journey respect this result's waiting
    bound [delta]?

    Test support: test_taxonomy checks through it that {!journey_to}'s
    walks respect the waiting bound. *)

val path_exists_exhaustive :
  delta:int -> Tgraph.t -> s:int -> t:int -> bool
(** Is there a Δ-restless {e simple path} [s → t]?  Exhaustive search
    (the problem is NP-hard); small networks only.
    @raise Invalid_argument for networks with more than 20 vertices.

    Test support: the oracle test_taxonomy checks {!run}'s reachability
    against. *)
