(** Temporal distances of a network instance.

    The paper's Temporal Diameter (Definition 5) is the *expectation* of
    the instance quantity computed here — the maximum temporal distance
    over all ordered vertex pairs; the expectation itself is estimated by
    [Sim.Estimators] over sampled instances.

    All-pairs quantities run on the bit-parallel {!Batch} kernel on
    either backend: one stream sweep per {!Batch.lane_width} sources
    (per {!Batch.arrival_lanes} where full arrival rows are read),
    fanned over the global [Exec.Pool] in fixed batch order, so
    results are exact and byte-identical at any [--jobs].  The one
    per-source path left, {!instance_diameter_scalar}, is the
    reference benches and equivalence tests compare against. *)

val distance : Tgraph.t -> int -> int -> int option
(** δ(u, v) for a single pair; [None] when no journey exists. *)

val eccentricity : Tgraph.t -> int -> int option
(** Max δ(s, v) over all [v]; [None] if some vertex is unreachable. *)

val instance_diameter : Tgraph.t -> int option
(** Max δ over all ordered pairs — one {e batched} foremost pass per
    {!Batch.lane_width} sources, so O(⌈n/W⌉·M) word operations instead
    of the scalar path's O(n·M); [None] as soon as one pair is
    temporally disconnected. *)

val instance_diameter_scalar : Tgraph.t -> int option
(** The per-source reference path (one scalar sweep per source).  Same
    result as {!instance_diameter}, pinned by tests; the bench's
    batched-vs-scalar section measures one against the other. *)

val instance_diameter_sampled : Prng.Rng.t -> Tgraph.t -> sources:int -> int option
(** Same maximum restricted to [sources] distinct random source vertices
    (each still checked against *all* targets) — an unbiased lower bound
    that concentrates fast on symmetric instances such as the clique.
    The sampled sources share batched sweeps ({!Batch.lane_width} per
    pass).  Retained for comparison studies; the E-series tables now
    use the exact {!instance_diameter} throughout. *)

val all_pairs : Tgraph.t -> int array array
(** [all_pairs net] has δ(u, v) at [(u, v)], [max_int] when unreachable
    and [0] on the diagonal.  Batched over {!Batch.arrival_lanes}-wide
    slices, so kernel scratch stays O(n) words on either backend (the
    n² output is the caller's ask, not an intermediate). *)

val average : Tgraph.t -> float
(** Mean δ over ordered reachable pairs [u <> v]; [nan] when none.
    Batched like {!all_pairs}; integer accumulation, so identical to a
    per-source loop. *)
