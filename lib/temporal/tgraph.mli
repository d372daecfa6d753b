(** Temporal networks [G = (V, E, L)] (paper, Definition 1).

    A static graph plus a label assignment and a lifetime [a] (the network
    is ephemeral: no label exceeds [a]).  Its *time-edge* stream —
    every [(u, v, l)] triple with [l ∈ L_{(u,v)}], both directions for
    undirected edges — is laid out by a stable counting sort by label
    (O(M + a), no comparator), which is what makes foremost-journey
    computation a single linear sweep.  Ties within a label are in edge-id
    order, [u→v] before [v→u], deterministically.

    The stream is one packed int word per arc plus the offsets of its
    label groups ({!Implicit.Stream.view}: the layout is defined there,
    once, for both backends), and the crossing table is the adjacency
    of the underlying graph (arcs carry edge ids, labels are looked up
    per id).  Hot paths use the non-allocating
    iterators and scalar per-edge label queries below; the tuple/[Label.t]
    accessors allocate per call and exist for convenience and tests.

    {b Backends.}  A network is either {e dense} — labels stored in
    label-set arrays or, one per edge, in two-byte cells — or {e implicit} ({!of_derived}): labels recomputed per
    query from [(seed, edge, roll)].  A dense label-set network
    ({!create}) builds its whole stream at construction; a dense
    single-label one ({!of_flat_arcs}, {!of_uniform_draws}) and an
    implicit one build it lazily, as a growing label-bounded prefix, so
    a sweep that stops early places only the arcs it reads.  All present
    the same interface; kernels written against
    {!stream_prefix}/{!stream_extend} run unchanged on each, and
    {!materialize} converts an implicit
    instance into its byte-identical dense twin.  The whole-stream
    accessors ({!stream}, {!iter_time_edges}) finish a dense stream
    that is still a prefix; they, and {!time_edge_count}, refuse
    implicit networks, with an error that names the fix. *)

type t

val create : Sgraph.Graph.t -> lifetime:int -> Label.t array -> t
(** [create g ~lifetime labels] with [labels.(e)] the label set of edge
    id [e].
    @raise Invalid_argument if the graph has more than
    [2^Implicit.Stream.arc_shift] vertices, if the array length differs
    from [m g], if the lifetime is non-positive, or if any label
    exceeds the lifetime. *)

val of_flat_arcs : Sgraph.Graph.t -> lifetime:int -> int array -> t
(** [of_flat_arcs g ~lifetime label] builds a single-label-per-edge
    network from a bare int array, [label.(e)] being the one label of
    edge [e].  Equivalent to [create] with singleton label sets but
    allocates no [Label.t] values — the fast path for UNI-CASE
    assignments such as the normalized U-RTN clique, where [create]
    would box [m] one-element arrays.

    Up to a lifetime of 65535 ([Prng.Cells.max_value]) the network
    keeps each label in a two-byte cell, edge [e]'s at byte [2 e]
    ({!Prng.Cells}).  The labels are validated and copied into their
    cells and, when [Implicit.Stream.list_bound ~lifetime > 0]
    (lifetime [>= 512]), the edges of the first label band are listed;
    nothing is placed or counted here.  The stream is built lazily, a
    band of labels at a time, when a sweep first reads past its current
    prefix: the first band from the list, any later one by a pass over
    the cells.  The whole stream's offsets are counted once, by the
    first band pass that needs them: a band past the first, a
    whole-stream reader ({!stream}, {!iter_time_edges},
    {!stream_extend_all}), or a first band without a list.  A longer
    lifetime has labels no cell holds: after the same validation the
    network is [create]'s, from singleton sets, with an eager stream.
    Either way the labels are copied: the caller keeps its array and
    may write it afterwards.
    @raise Invalid_argument on a graph of more than
    [2^Implicit.Stream.arc_shift] vertices, a non-positive lifetime, a
    length mismatch, or a label outside [1..lifetime] (the first one in
    edge order). *)

val of_uniform_draws : Prng.Rng.t -> Sgraph.Graph.t -> lifetime:int -> t
(** [of_uniform_draws rng g ~lifetime] draws one label per edge,
    uniform on [{1..lifetime}], in edge-id order — the draws of a
    [1 + Prng.Rng.int rng lifetime] loop — and builds the network
    {!of_flat_arcs} would build from them.  It draws straight into the
    label cells through [Prng.Rng.fill_int], without a divide when the
    lifetime is a power of two; the labels are drawn here, so they are
    not validated again, and the draw loop lists the first band: it is
    the only pass over the labels until a sweep reads past the first
    band.
    @raise Invalid_argument unless [1 <= lifetime <= 65535] (from
    [Prng.Rng.fill_int]: a longer lifetime has labels no cell holds),
    or on a graph of more than [2^Implicit.Stream.arc_shift]
    vertices. *)

val of_derived : Sgraph.Graph.t -> a:int -> seed:int64 -> r:int -> t
(** [of_derived g ~a ~seed ~r] is the implicit-backend constructor: a
    temporal network whose edge labels are the [r] uniform draws over
    [{1..a}] derived from [SplitMix64(seed, edge_id)] on demand
    ({!Implicit.Labels}), with lifetime [a].  O(1) label memory; the
    time-edge stream materializes lazily ({!stream_prefix}).
    @raise Invalid_argument unless [a >= 1] and [r >= 1], or on a
    graph of more than [2^Implicit.Stream.arc_shift] vertices. *)

val materialize : t -> t
(** The dense twin: the identity on dense networks; on an implicit one,
    rolls every label once and builds the fully-materialized network —
    byte-identical stream and labelling to what the dense constructors
    produce for the same rolls.  Costs the O(m·r) memory the implicit
    form exists to avoid; for tests, small instances, and consumers
    that genuinely need the whole stream. *)

val is_implicit : t -> bool
(** True on {!of_derived} networks (labels recomputed per query). *)

val graph : t -> Sgraph.Graph.t
val lifetime : t -> int

val n : t -> int
(** Vertex count of the underlying graph. *)

val labels : t -> int -> Label.t
(** Label set of an edge id.  Allocates on single-label networks
    (builds the singleton on demand) — hot paths should use the scalar
    queries below instead. *)

val label_count : t -> int
(** Total number of labels over all edges — the quantity compared against
    [OPT] in the Price of Randomness. *)

val time_edge_count : t -> int
(** Number of directed time edges in the sweep stream (undirected edges
    contribute both directions per label).  Known from construction on
    dense networks: it places no arc.
    @raise Invalid_argument on implicit networks — the stream is never
    fully materialized there; use {!materialize} first. *)

val iter_time_edges : t -> (src:int -> dst:int -> label:int -> unit) -> unit
(** Iterate the stream in non-decreasing label order.  On a
    single-label network whose stream is still a prefix, first places
    every remaining arc, in one band pass.
    @raise Invalid_argument on implicit networks; use {!materialize}
    or the prefix interface. *)

val time_edge : t -> int -> int * int * int
(** [time_edge t i] is the [i]-th stream entry as [(src, dst, label)],
    the label found by a binary search on the view's offsets.  Valid
    for any index inside the current prefix — in particular for every
    predecessor index a kernel has produced, even after the prefix has
    grown. *)

val stream : t -> Implicit.Stream.view
(** The whole stream, borrowed (do {e not} mutate): packed arcs grouped
    by label, and the group offsets.  The raw representation for flat
    kernel loops such as the reverse foremost sweep.  Finishes a
    single-label network's stream first, like {!iter_time_edges}.
    @raise Invalid_argument on implicit networks; scan
    {!stream_prefix} / {!stream_extend} instead. *)

(** {2 Prefix stream interface}

    What sweep kernels scan.  On label-set networks the prefix is the
    whole stream and never extends; on single-label and implicit ones
    it is the entries with label [<= stream_prefix_bound], a byte
    prefix of the whole stream that grows under {!stream_extend} — so
    a kernel that exhausts the prefix re-grabs the view and resumes at
    its saved index or label. *)

val stream_prefix : t -> Implicit.Stream.view
(** The current prefix, borrowed.  Extends replace the view — re-grab
    after {!stream_extend}.  A kernel takes its arrays {e and} its
    bound from one grab: reading the bound separately could see a
    deeper prefix than the arrays it scanned. *)

val stream_prefix_bound : t -> int
(** Every stream entry with label [<= stream_prefix_bound t] is in the
    current prefix.  Equals [lifetime] on label-set networks. *)

val stream_complete : t -> bool
(** Is the current prefix the whole stream?  Always true on label-set
    networks.

    Test support: test_implicit checks a derived network's prefix growth
    through it. *)

val stream_extend : t -> past:int -> bool
(** [stream_extend t ~past] ensures the prefix reaches strictly past
    label bound [past] (the bound of the view the caller exhausted).
    Returns [false] iff the stream is complete and holds nothing beyond
    [past].  Always [false] on label-set networks. *)

val stream_extend_all : t -> Implicit.Stream.view
(** Extend the prefix to the whole stream and return it, on either
    backend: for consumers that read every arc, such as flooding.  A
    single-label stream gets there in one band pass; an implicit one
    through the doubling schedule, paying the [O(m·r)] memory that
    {!stream} refuses to spend silently. *)

(** {2 Scalar per-edge label queries}

    Allocation-free on both labellings; [max_int] is the "none"
    sentinel. *)

val edge_label_size : t -> int -> int
(** Test support: test_kernel and test_implicit check each layout's
    per-edge label count through it. *)

val edge_has_label : t -> int -> int -> bool
(** [edge_has_label t e x] — is [x ∈ L_e]? *)

val edge_next_label_after : t -> int -> int -> int
(** Smallest label of edge [e] strictly greater than the argument,
    [max_int] when none. *)

val edge_next_label_in : t -> int -> lo:int -> hi:int -> int
(** Smallest label of edge [e] in [(lo, hi]], [max_int] when none. *)

val iter_edge_labels : t -> int -> (int -> unit) -> unit
(** All labels of edge [e], ascending. *)

(** {2 Crossings} *)

val iter_crossings_out : t -> int -> (int -> int -> unit) -> unit
(** [iter_crossings_out t v f] calls [f edge target] for each arc leaving
    [v], in edge-id order, without allocating. *)

val iter_crossings_in : t -> int -> (int -> int -> unit) -> unit
(** [f edge source] for each arc entering [v]. *)

val crossings_out : t -> int -> (int * int * Label.t) array
(** [crossings_out t v] lists [(edge id, target, labels)] for each arc
    leaving [v].  Allocates a fresh array per call — use
    {!iter_crossings_out} plus the scalar queries on hot paths. *)

val crossings_in : t -> int -> (int * int * Label.t) array
(** [(edge id, source, labels)] for each arc entering [v] (allocates).

    Test support: test_temporal_core and test_crosschecks check the arcs
    into a vertex through it. *)

val can_cross_at : t -> src:int -> dst:int -> int -> bool
(** Is some arc [src → dst] available exactly at the given time? *)

val pp : Format.formatter -> t -> unit
