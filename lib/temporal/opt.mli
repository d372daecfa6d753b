(** Deterministic label assignments that preserve reachability, and the
    OPT quantities they certify (paper §4–5).

    [OPT] is the least total number of labels over all edges in an
    assignment with property [Treach] (Definition 8).  It is hard to
    approximate in general [21], but the paper only ever needs:
    the exact values for the clique ([m]) and the star ([2m]), the
    universal lower bound [OPT >= n-1], and constructive upper bounds —
    all provided here, each returning an assignment that the test suite
    verifies satisfies [Treach]. *)

val star_two_labels : Sgraph.Graph.t -> Tgraph.t
(** Labels [{1, 2}] on every edge of a star: any leaf-to-leaf journey
    rides [1] then [2].  This realises [OPT = 2m] (Theorem 6 preamble).
    @raise Invalid_argument if the graph is not a star with centre 0.

    Test support: a star on which every pair is reachable, the fixture
    of test_taxonomy's "star centre wins", "betweenness star" and "star
    attack" ([Centrality], [Robustness]) and of test_ops' "already
    minimal" ([Spanner]). *)

val spanning_tree_upper : Sgraph.Graph.t -> Tgraph.t
(** On a BFS spanning tree of a connected graph, rooted at vertex [0]
    with height [h]: the tree edge joining depth [j] to depth [j-1] gets
    labels [{h - j + 1, h + j}], and non-tree edges get none.  Every
    journey goes up (labels [1..h] increasing towards the root) then
    down (labels [h+1..2h] increasing away from it), so two labels per
    tree edge preserve reachability: the universal certificate
    [OPT <= 2(n-1)].
    @raise Invalid_argument if the graph is directed or disconnected. *)

val boxes : ?pick:(edge:int -> box:int -> lo:int -> hi:int -> int) ->
  Sgraph.Graph.t -> q:int -> Tgraph.t
(** Claim 1's structure (Figure 3): with lifetime [q] and [d = diam(G)],
    each edge gets one label from each of the [d] consecutive boxes of
    width [λ = q/d] ([Box_i ↦ ((i-1)λ, iλ]]).  Any such assignment makes
    every shortest path a journey, hence guarantees reachability with
    [d·m] labels.  [pick] chooses the label within each box (default: the
    box's first label).
    @raise Invalid_argument if [q < d] or the graph is disconnected. *)

val lower_bound : Sgraph.Graph.t -> int
(** [n - 1]: a labelled spanning structure is unavoidable (§5). *)

val star_value : n:int -> int
(** [2·(n-1)], the exact star OPT. *)

val clique_value : Sgraph.Graph.t -> int
(** [m], the cost of the 1-label-per-edge clique scheme — an upper bound
    on the clique's OPT (the spanning-tree certificate [2(n-1)] is
    smaller for [n >= 5]; §4.1's uniqueness claim is about per-edge
    schemes, not total label minimality). *)

val upper_bound : Sgraph.Graph.t -> int
(** [2·(n-1)] for connected graphs, via {!spanning_tree_upper}. *)

val is_clique : Sgraph.Graph.t -> bool
val is_star : Sgraph.Graph.t -> bool
