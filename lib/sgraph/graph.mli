(** Static (di)graphs: the underlying graphs [G = (V, E)] of temporal
    networks (paper, Definition 1).

    Vertices are [0 .. n-1].  Edges are stored once each and identified by
    a dense integer id — temporal label assignments are arrays indexed by
    that id.  An undirected edge is crossable in both directions under the
    same labels; a directed edge only from its source to its target
    (paper §2).  Self-loops and parallel edges are rejected: neither
    occurs in any construction of the paper.

    A graph from {!create} stores its adjacency in CSR form (per-vertex
    offsets into flat int arrays), so the non-allocating
    {!iter_out}/{!iter_in} scans are the fast path; the tuple-array
    accessors {!out_arcs}/{!in_arcs} build a fresh boxed copy per call
    and are kept for convenience and tests.

    The clique, the star and the grid are instead {e arithmetic shapes}
    ({!implicit_clique}, {!implicit_star}, {!implicit_grid}), the only
    form {!Gen} builds them in: O(1)-memory values whose adjacency and
    edge-id decode are pure arithmetic.  Each is numbered as {!create}
    numbers the list of its pairs consed in emission order, so edge 0
    is the last pair emitted (the star's edge [e] joins [0] and
    [e + 1]), and its iterators visit arcs in the order that CSR would:
    edge id ascending.  A shape and the CSR of its edge list are
    therefore observationally identical, and label draws, which go by
    edge id, are the same on either; a shape just has no O(n + m)
    arrays behind it. *)

type kind = Directed | Undirected

type t

val create : kind -> n:int -> (int * int) list -> t
(** [create kind ~n edges] builds a graph on [n] vertices.  For
    [Undirected], edge pairs are normalised to [(min, max)].
    @raise Invalid_argument on out-of-range endpoints, self-loops, or
    duplicate edges (including [(u,v)] vs [(v,u)] when undirected). *)

val implicit_clique : kind -> int -> t
(** [implicit_clique kind n] is the complete graph on [n] vertices as an
    O(1)-memory shape.  Its pairs are emitted [u] ascending, then [v]
    ascending ([v <> u] if directed, [v > u] if undirected).
    @raise Invalid_argument if [n < 1]. *)

val implicit_star : int -> t
(** [implicit_star n] is the undirected star with centre [0] as an
    O(1)-memory shape; edge [e] joins [0] and [e + 1].
    @raise Invalid_argument if [n < 2]. *)

val implicit_grid : rows:int -> cols:int -> t
(** [implicit_grid ~rows ~cols] is the undirected grid as an O(1)-memory
    shape, vertex [(r,c)] at [r*cols + c].  Its pairs are emitted cell
    by cell in row-major order, the edge right of a cell before the
    edge below it.
    @raise Invalid_argument if either dimension is [< 1]. *)

val is_implicit : t -> bool
(** True when the graph is an arithmetic shape rather than a CSR.

    Test support: test_serve and test_implicit check through it that the
    clique, star and grid load as shapes on either backend and other
    families as CSRs. *)

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
    the arithmetic decode on a shape.  On a clique the decode finds the
    id's source block, whose ids share a source, and is skipped while
    the next id stays in that block: a sorted list pays about one
    decode per block.  For passes that touch a known few of the [m]
    edges, such as placing the arcs of one label band.
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
