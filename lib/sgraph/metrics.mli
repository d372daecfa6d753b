(** Static distance metrics.

    The (static) diameter [d(G)] is the quantity the Theorem 7 bound
    [r > 2 d(G) log n] and the Claim 1 box structure are built from. *)

val eccentricity : Graph.t -> int -> int
(** Max hop distance from the vertex to any other; {!Traverse.unreachable}
    if some vertex is unreachable. *)

val diameter : Graph.t -> int
(** Exact diameter via one BFS per vertex; {!Traverse.unreachable} when
    the graph is not (strongly, if directed) connected; [0] for a
    single vertex.
    @raise Invalid_argument on the empty graph. *)
