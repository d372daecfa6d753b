(** Bit-parallel batched foremost sweeps: one pass over the
    counting-sorted time-edge stream serves up to {!lane_width} sources
    at once, each owning one bit lane of a per-vertex machine word.
    The pass walks the stream's label groups by their offsets
    ({!Implicit.Stream.view}), from label [start_time] on, and takes
    its arcs and bound from one view per grab.  Its edge scan has no
    branch per arc: each arc writes its target's new bits and the top
    of the group's dirty stack, so the stack takes [n + 1] words of the
    {!Workspace}.

    {b Lane layout.}  For a batch of [k] sources, bit [j] (LSB first)
    of [reached v] belongs to lane [j] — source [sources.(j)] — and
    the arrival matrix is lane-strided: entry [v * k + j].  Batches
    over all sources are formed in source order, [w] at a time, so
    source [s] is lane [s mod w] of batch [s / w]; a final ragged batch
    ([n mod w <> 0] sources) simply has fewer lanes.  [w] is
    {!lane_width} for the plane kernels and {!arrival_lanes}[ ~n] for
    the arrival-matrix drivers.

    {b Equivalence.}  Entries of one label are applied against the
    reached state frozen at the previous label and committed together
    (journey labels increase strictly, so same-label chaining is
    impossible), which makes per-lane arrivals bit-for-bit equal to
    {!Foremost.arrivals_borrowed} for the lane's source and
    independent of within-label stream order.  The saturation
    early-exit is output-invariant: a committed arrival is final, so
    once every lane has reached every vertex the remaining stream
    cannot change anything.

    Results borrow the calling domain's {!Workspace} batch slots:
    valid until the next batched sweep on the same domain, and only
    entries for [v < n], [lane < lanes] are meaningful.  Scalar
    foremost sweeps and static BFS use disjoint slots and may run
    while a batch result is still live. *)

val lane_width : int
(** Lanes per machine word: [Sys.int_size] (63 on 64-bit). *)

type t = {
  n : int;  (** vertex count of the swept network *)
  lanes : int;  (** active lanes in this batch, [1 .. lane_width] *)
  start_time : int;
  sources : int array;  (** [sources.(lane)] is the lane's source *)
  arrival : int array;  (** borrowed; entry [v * lanes + lane] *)
  reached : int array;  (** borrowed; per-vertex lane bitmask *)
  reached_counts : int array;  (** borrowed; per-lane reached counts *)
  ecc : int array;
      (** borrowed; per-lane saturation label, [max_int] unsaturated *)
}

val sweep : ?start_time:int -> Tgraph.t -> sources:int array -> t
(** One word-parallel sweep for the given sources (at most
    {!lane_width}; duplicates allowed).  O(M) stream scan with
    saturation early-exit, zero allocation beyond the per-domain
    workspace.
    @raise Invalid_argument on an empty or oversized source array, a
    source out of range, or [start_time < 1]. *)

val sweep_diameter : ?start_time:int -> Tgraph.t -> sources:int array -> int option
(** The batch's worst eccentricity — [max] over the given sources of
    their max arrival, i.e. what folding {!eccentricity} over a
    {!sweep}'s lanes yields — or [None] if any (source, vertex) pair
    has no journey.  The arrival-free plane walk: the same
    group-phased walk as {!sweep}, but it never allocates or writes
    the arrival matrix (arrivals commit in strictly increasing label
    order, so the last committed pair's label is the answer), and its
    commit only counts the vertices whose reached word is not yet
    full, so the edge scan is the whole cost and scratch stays at O(n)
    words.  This is the kernel behind {!Distance.instance_diameter}.
    @raise Invalid_argument as {!sweep}. *)

val sweep_reach : ?start_time:int -> Tgraph.t -> sources:int array -> t
(** {!sweep_diameter}'s plane walk followed by one pass over the
    reached plane that recovers the per-lane counts: {!reached_word},
    {!reached_count}, {!saturated} and {!all_saturated} are exactly a
    {!sweep}'s, at O(n) words of scratch.  {!arrival},
    {!arrivals_into} and {!eccentricity} are unsupported on the
    result.
    @raise Invalid_argument as {!sweep}. *)

(** {2 Per-lane readout} *)

val lanes : t -> int
val source : t -> int -> int

val arrival : t -> lane:int -> int -> int
(** Earliest arrival at the vertex for the lane's source: the lane's
    source itself holds [start_time - 1], unreachable vertices
    [max_int] — exactly {!Foremost.arrivals_borrowed}'s convention. *)

val arrivals_into : t -> lane:int -> int array -> unit
(** Copy the lane's arrival row into [out.(0 .. n-1)]. *)

val reached_word : t -> int -> int
(** Bitmask of lanes with a journey to the vertex (sources count as
    reaching themselves). *)

val reached_count : t -> lane:int -> int
(** Vertices reached by the lane, its source included. *)

val saturated : t -> lane:int -> bool
val all_saturated : t -> bool

val eccentricity : t -> lane:int -> int option
(** Max arrival over all targets of the lane's source — the label of
    the group that saturated the lane — or [None] while some vertex is
    unreached.  O(1): maintained by the sweep itself.

    Test support: test_batch checks each lane of a sweep against
    [Foremost.max_distance] through it. *)

(** {2 All-source batching}

    Sources [0 .. n-1] in source order: {!lane_width}-wide batches for
    the plane kernels ({!batch_count}, {!batch_sources}),
    {!arrival_lanes}-wide slices for the arrival-matrix drivers
    ({!iter_batches}, {!map_batches}). *)

val batch_count : n:int -> int

val batch_sources : n:int -> int -> int array
(** The sources of one batch; the last batch is ragged when
    [n mod lane_width <> 0].
    @raise Invalid_argument when the batch index is out of range. *)

val arrival_lanes : n:int -> int
(** Sources per arrival-matrix sweep at [n] vertices:
    [max 1 (min lane_width (2^20 / n))].  Full words up to
    [n = 16 644], fewer beyond, never below one; so [n * lanes <=
    max(2^20, n)] words of matrix scratch per domain — the implicit
    backend's O(n) contract — without asking which backend is in
    use. *)

val iter_batches : ?start_time:int -> Tgraph.t -> (t -> unit) -> unit
(** Sequential {!sweep}s over {!arrival_lanes}-wide source slices on
    the calling domain, in source order.  The callback's argument is
    borrowed per the workspace discipline. *)

val map_batches : ?start_time:int -> Tgraph.t -> (t -> 'a) -> 'a array
(** One extracted value per {!arrival_lanes}-wide slice, computed on
    the global {!Exec.Pool} (inline when already inside a pool task)
    and returned in slice order — so a sequential fold over the result
    is byte-identical at any [--jobs], per the pool's determinism
    contract.  [f] must copy what it keeps: its argument borrows the
    {e worker} domain's workspace. *)

(** {2 Bit utilities} *)

val popcount : int -> int
