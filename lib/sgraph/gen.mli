(** Graph generators: every underlying graph the paper's experiments need.

    Deterministic families (clique, star, path, …) plus the Erdős–Rényi
    random graphs used in the proofs of Theorem 5 and the Ω(log n)
    remark. *)

val clique : Graph.kind -> int -> Graph.t
(** [clique kind n]: the complete graph [K_n]; directed means both arcs
    [(u,v)] and [(v,u)] exist, as in the paper's §3 model.  An
    O(1)-memory arithmetic shape ({!Graph.implicit_clique}).
    @raise Invalid_argument if [n < 1]. *)

val clique_implicit : Graph.kind -> int -> Graph.t
(** [clique_implicit] is {!clique}, under the name perfbench's traced
    implicit trial calls. *)

val star : int -> Graph.t
(** [star n]: undirected [K_{1,n-1}] with centre [0] (Theorem 6's
    graph), edge [e] joining [0] and [e + 1].  An O(1)-memory
    arithmetic shape ({!Graph.implicit_star}).
    @raise Invalid_argument if [n < 2]. *)

val path : int -> Graph.t
(** [path n]: undirected path [0 - 1 - ... - n-1]. *)

val cycle : int -> Graph.t
(** [cycle n]: undirected cycle; [n >= 3]. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]: undirected 2-d lattice, vertex [(r,c)] at
    [r*cols + c].  An O(1)-memory arithmetic shape
    ({!Graph.implicit_grid}).
    @raise Invalid_argument if either dimension is [< 1]. *)

val hypercube : int -> Graph.t
(** [hypercube d]: the [d]-dimensional binary hypercube on [2^d]
    vertices; [d >= 1]. *)

val binary_tree : int -> Graph.t
(** [binary_tree n]: the first [n] vertices of the complete binary tree
    in heap order (vertex [i]'s parent is [(i-1)/2]); [n >= 1]. *)

val wheel : int -> Graph.t
(** [wheel n]: hub [0] joined to a cycle on [1..n-1]; [n >= 4]. *)

val barbell : int -> Graph.t
(** [barbell k]: two [K_k] cliques joined by one bridge edge; [k >= 2].
    [2k] vertices; a classic small-cut stress case.

    Test support: a small-cut fixture among the graphs test_opt checks
    [Temporal.Opt]'s labelings on. *)

val random_tree : Prng.Rng.t -> int -> Graph.t
(** [random_tree rng n]: a uniform labelled tree via a random Prüfer
    sequence; [n >= 1] ([n <= 2] has no Prüfer freedom). *)

val gnp : Prng.Rng.t -> n:int -> p:float -> Graph.t
(** [gnp rng ~n ~p]: Erdős–Rényi [G(n,p)], each of the [n(n-1)/2]
    undirected edges present independently with probability [p].  Uses
    geometric skipping, so sparse graphs cost O(n + m). *)

val barabasi_albert : Prng.Rng.t -> n:int -> m:int -> Graph.t
(** [barabasi_albert rng ~n ~m]: preferential attachment — start from a
    clique on [m+1] vertices, then each new vertex attaches to [m]
    distinct existing vertices chosen proportionally to their degree.
    Always connected; heavy-tailed degrees.
    @raise Invalid_argument unless [1 <= m < n]. *)

val watts_strogatz : Prng.Rng.t -> n:int -> k:int -> beta:float -> Graph.t
(** [watts_strogatz rng ~n ~k ~beta]: small world — a ring lattice where
    every vertex joins its [k] nearest neighbours on each side, then
    each lattice edge is rewired with probability [beta] to a uniform
    random non-duplicate endpoint.
    @raise Invalid_argument unless [k >= 1], [2k < n - 1] and
    [beta ∈ \[0,1\]]. *)
