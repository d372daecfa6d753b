(** Temporal connectivity structure.

    The *reachability graph* of a temporal network has an arc [u → v]
    whenever some journey goes from [u] to [v] — the object behind
    Definition 6 and the connectivity questions of Kempe et al. [19] /
    Mertzios et al. [21].

    A crucial subtlety, faithfully exposed here: temporal reachability
    is {e not transitive} — a journey [u → v] and a journey [v → w] need
    not compose (the second may depart before the first arrives).  So
    the reachability graph is not closure-closed, and "temporally
    connected component" splits into inequivalent notions:

    - {!scc}: strongly connected components of the reachability graph —
      classes linked by *chains* of reachability arcs (relay through
      time is allowed at every hop with a fresh departure);
    - maximal sets whose members {e directly} reach each other both ways
      — cliques of {!mutual_graph}, NP-hard in general (Bhadra &
      Ferreira); an exhaustive search is provided for small networks. *)

val reachability_graph : Tgraph.t -> Sgraph.Graph.t
(** Directed graph on the same vertices; arc [u → v] iff a journey
    [u → v] exists ([u ≠ v]).  O(n·M). *)

val scc : Tgraph.t -> int array
(** Component id per vertex: Tarjan on {!reachability_graph}. *)

val scc_count : Tgraph.t -> int

val is_temporally_connected : Tgraph.t -> bool
(** Every ordered pair is joined by a journey — the reachability graph
    is the complete digraph.  (Stronger than {!Reachability.treach},
    which only demands journeys where static paths exist.) *)

val mutual_graph : Tgraph.t -> Sgraph.Graph.t
(** Undirected graph with an edge [{u, v}] iff journeys exist both
    ways. *)

val largest_mutual_clique_exhaustive : Tgraph.t -> int
(** Size of the largest set of vertices pairwise joined both ways — the
    "temporal connected component" of Bhadra–Ferreira.  Exhaustive
    (branch and bound over {!mutual_graph} cliques): small networks
    only.
    @raise Invalid_argument for [n > 24]. *)
