(** Connectivity structure.

    Weak components for undirected graphs (the notion behind the
    Erdős–Rényi threshold in Theorem 5) and strong connectivity for
    digraphs (a directed clique is strongly connected, which is what makes
    all-pairs temporal reachability possible at all). *)

val components : Graph.t -> int array
(** [components g] labels every vertex with a component id in
    [0..k-1] (ids in order of discovery).  Edge direction is ignored. *)

val component_count : Graph.t -> int

val is_connected : Graph.t -> bool
(** Ignoring direction; [true] for the empty and 1-vertex graph. *)

val strongly_connected_components : Graph.t -> int array
(** Tarjan's algorithm; component ids in reverse topological order of the
    condensation.  Equals {!components} on undirected graphs. *)
