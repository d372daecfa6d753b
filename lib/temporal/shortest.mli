(** Shortest journeys: fewest hops, time-respecting.

    Completes the classic journey taxonomy (foremost / reverse-foremost /
    fastest / shortest) of Bui-Xuan, Ferreira & Jarry [6] in the
    discrete-label model.  A shortest [(s,v)]-journey minimises the
    number of time edges used; its arrival time may be worse than the
    foremost journey's.

    Computed by hop-layered dynamic programming on
    [arr_k(v)] = earliest arrival using at most [k] edges:
    [arr_k(v) = min(arr_{k-1}(v), min over arcs (u,v) of the smallest
    label > arr_{k-1}(u))].  Prefix-optimality holds because an earlier
    arrival never disables a later label.  O(diam · M · log) overall. *)

type result

val run : ?start_time:int -> Tgraph.t -> int -> result
(** [run net s] computes minimal hop counts (and the earliest arrival at
    that hop count) from [s] for journeys departing at [>= start_time].
    @raise Invalid_argument on a bad source or [start_time < 1]. *)

val hops : result -> int -> int option
(** Fewest time edges of any journey to the vertex; [Some 0] for the
    source, [None] if unreachable. *)

val arrival_at_best_hops : result -> int -> int option
(** Earliest arrival among journeys using {!hops} edges. *)

val max_hops : result -> int option
(** The instance's hop-eccentricity of the source; [None] if some vertex
    is unreachable. *)

val journey_to : Tgraph.t -> result -> int -> Journey.t option
(** A witness journey with exactly {!hops} steps; [Some []] for the
    source.

    Test support: test_taxonomy checks through it that {!run}'s hop counts
    have witness journeys. *)

val pareto : result -> int -> (int * int) list
(** [pareto r v] is the full hops-vs-arrival trade-off to [v]: the
    non-dominated [(hops, earliest arrival using <= hops edges)] pairs,
    in increasing hops / strictly decreasing arrival order.  Its first
    point is [({!hops}, {!arrival_at_best_hops})] and its last arrival
    equals the foremost distance.  Empty when unreachable; [[(0, 0)]]
    at the source.

    Test support: test_taxonomy checks {!run}'s per-hop arrival levels
    through it, anchored to {!hops} and [Foremost]. *)
