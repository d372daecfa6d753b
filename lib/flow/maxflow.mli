(** Maximum flow (Dinic's algorithm) on integer-capacity networks.

    Substrate for temporal connectivity questions: the number of
    pairwise time-edge-disjoint journeys between two vertices equals a
    max flow on the time-expanded graph ({!Temporal.Expanded}), in the
    tradition of Kempe, Kleinberg & Kumar [19] and Berman's
    flows-over-time.  O(V²·E) in general, O(E·√V) on unit-capacity
    networks — far beyond anything the experiments need. *)

type t
(** A mutable flow network under construction / after solving. *)

val create : int -> t
(** [create n] — an empty network on nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> capacity:int -> int
(** Adds a directed edge (and its residual twin); returns an edge handle
    for {!flow_on}.  Capacities must be non-negative; [max_int] is
    treated as unbounded.
    @raise Invalid_argument on bad endpoints or negative capacity. *)

val max_flow : t -> source:int -> sink:int -> int
(** Computes (and stores) the maximum flow value.
    @raise Invalid_argument if [source = sink] or out of range. *)

val flow_on : t -> int -> int
(** Flow routed over the edge handle after {!max_flow}.

    Test support: test_connectivity checks the flow {!max_flow} routes on
    an edge through it. *)

val min_cut_side : t -> source:int -> bool array
(** After {!max_flow}: the source side of a minimum cut (nodes reachable
    from the source in the residual network).

    Test support: test_connectivity checks {!max_flow}'s value against the
    capacity across this cut (max-flow = min-cut). *)
