(** The time-expanded (static) view of a temporal network.

    Nodes are (vertex, time) pairs — one per arrival event plus a time-0
    presence node per vertex; *wait* arcs chain a vertex's events
    forward in time, and each time edge [(u, v, l)] becomes one *travel*
    arc from [u]'s latest event before [l] to [(v, l)].  Strictly
    increasing journey labels correspond exactly to directed paths here,
    which turns temporal questions into static ones: reachability,
    and — with unit capacities on travel arcs — the maximum number of
    time-edge-disjoint journeys as a max-flow ({!Disjoint}).  This is
    the classic reduction underlying Kempe, Kleinberg & Kumar [19] and
    Berman's scheduled networks. *)

type t

type arc =
  | Wait of { from_id : int; to_id : int }
      (** stay at the vertex between consecutive events *)
  | Travel of { from_id : int; to_id : int; stream_index : int }
      (** cross the time edge at [Tgraph.time_edge net stream_index] *)

val build : Tgraph.t -> t

val node_count : t -> int

val node : t -> int -> int * int
(** [(vertex, time)] of a node id; time 0 is the initial presence. *)

val start_node : t -> int -> int
(** The time-0 node of a vertex. *)

val arcs : t -> arc array
(** All arcs (do not mutate). *)

val arc_count : t -> int
(** Test support: test_connectivity checks that {!build} emits arcs
    through it. *)

val earliest_arrival : t -> int -> int array
(** [earliest_arrival exp s] recomputes temporal distances from [s] *via
    the static expansion* (per vertex, the minimum event time among
    reachable nodes; [max_int] if none, [0] at the source) — an
    independent cross-check of {!Foremost}, property-tested equal.

    Test support: the independent oracle test_connectivity checks
    [Foremost.run] against. *)
