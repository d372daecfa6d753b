(** Static (di)graphs: the underlying graphs [G = (V, E)] of temporal
    networks (paper, Definition 1).

    Vertices are [0 .. n-1].  Edges are stored once each and identified by
    a dense integer id — temporal label assignments are arrays indexed by
    that id.  An undirected edge is crossable in both directions under the
    same labels; a directed edge only from its source to its target
    (paper §2).  Self-loops and parallel edges are rejected: neither
    occurs in any construction of the paper.

    Adjacency is stored in CSR form (per-vertex offsets into flat int
    arrays), so the non-allocating {!iter_out}/{!iter_in} scans are the
    fast path; the tuple-array accessors {!out_arcs}/{!in_arcs} build a
    fresh boxed copy per call and are kept for convenience and tests.

    A few regular topologies also exist as {e implicit shapes}
    ({!implicit_clique}, {!implicit_star}, {!implicit_grid}): O(1)-memory
    values whose adjacency and edge-id decode are pure arithmetic.  They
    use the exact vertex and edge numbering of the corresponding
    {!Gen} generators and their iterators visit arcs in the same
    edge-id-ascending order as the CSR build, so the two forms are
    observationally identical — the implicit form just has no O(n + m)
    arrays behind it, which is what lets derived-label temporal
    instances scale past the CSR memory wall. *)

type kind = Directed | Undirected

type t

val create : kind -> n:int -> (int * int) list -> t
(** [create kind ~n edges] builds a graph on [n] vertices.  For
    [Undirected], edge pairs are normalised to [(min, max)].
    @raise Invalid_argument on out-of-range endpoints, self-loops, or
    duplicate edges (including [(u,v)] vs [(v,u)] when undirected). *)

val of_arrays : kind -> n:int -> int array -> int array -> t
(** [of_arrays kind ~n src dst] is the trusted constructor for
    generator-produced edge sets: edge id [e] runs from [src.(e)] to
    [dst.(e)].  Endpoints are range- and self-loop-checked (O(m)), and
    undirected pairs are normalised in place, but {e duplicates are not
    detected} — the caller vouches for distinctness.  Takes ownership
    of both arrays; do not reuse them.
    @raise Invalid_argument on out-of-range endpoints, self-loops, or
    mismatched array lengths. *)

val implicit_clique : kind -> int -> t
(** [implicit_clique kind n] is the complete graph on [n] vertices as an
    O(1)-memory shape, numbered exactly like [Gen.clique kind n].
    @raise Invalid_argument if [n < 1]. *)

val implicit_star : int -> t
(** [implicit_star n] is the undirected star with centre [0] as an
    O(1)-memory shape, numbered exactly like [Gen.star n].
    @raise Invalid_argument if [n < 2]. *)

val implicit_grid : rows:int -> cols:int -> t
(** [implicit_grid ~rows ~cols] is the undirected grid as an O(1)-memory
    shape, numbered exactly like [Gen.grid rows cols].
    @raise Invalid_argument if either dimension is [< 1]. *)

val is_implicit : t -> bool
(** True when the graph is an arithmetic shape rather than a CSR.

    Test support: test_serve and test_implicit check through it that the
    implicit backend builds shapes and the dense one CSRs. *)

val kind : t -> kind
val is_directed : t -> bool

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of stored edges (arcs if directed). *)

val arc_count : t -> int
(** Number of traversable directions: [m] if directed, [2m] otherwise. *)

val edge_endpoints : t -> int -> int * int
(** [edge_endpoints g e] is the endpoint pair of edge id [e].
    @raise Invalid_argument on a bad id. *)

val edges : t -> (int * int) array
(** A copy of the edge array, index = edge id. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] calls [f e u v] for every edge id [e] = [(u,v)]. *)

val iter_edge_ids :
  t -> int array -> len:int -> (int -> int -> int -> unit) -> unit
(** [iter_edge_ids g ids ~len f] calls [f e u v] for each edge id
    [e = ids.(j)], [j] ascending from [0] to [len - 1], [(u, v)] being
    the endpoints {!iter_edges} gives [e].  A visit allocates nothing
    and reads only the listed edges: two array reads on a CSR graph,
    the arithmetic decode on a shape.  For passes that touch a known
    few of the [m] edges, such as placing the arcs of one label band.
    @raise Invalid_argument if [len] is outside [0 .. Array.length ids]
    or a listed id is not an edge. *)

val out_neighbors : t -> int -> int array
(** Targets reachable by one traversable arc out of the vertex (do not
    mutate the returned array). *)

val out_arcs : t -> int -> (int * int) array
(** [(edge id, target)] pairs for each traversable arc out of the vertex.
    Allocates a fresh array per call — use {!iter_out} on hot paths. *)

val in_arcs : t -> int -> (int * int) array
(** [(edge id, source)] pairs for each traversable arc into the vertex.
    Allocates a fresh array per call — use {!iter_in} on hot paths. *)

val iter_out : t -> int -> (int -> int -> unit) -> unit
(** [iter_out g v f] calls [f edge target] for each traversable arc out
    of [v], in edge-id append order, without allocating. *)

val iter_in : t -> int -> (int -> int -> unit) -> unit
(** [iter_in g v f] calls [f edge source] for each traversable arc into
    [v], without allocating. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] — is there a traversable arc from [u] to [v]? *)

val find_edge : t -> int -> int -> int option
(** Edge id of the arc from [u] to [v], if any. *)

val reverse : t -> t
(** The reverse digraph; the identity on undirected graphs.  Edge ids are
    preserved. *)

val pp : Format.formatter -> t -> unit
