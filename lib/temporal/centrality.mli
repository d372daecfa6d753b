(** Temporal centrality indices.

    Rankings of vertices by how well they disseminate or collect
    information under the network's availability schedule — the natural
    "who should originate the message" question on top of §3.5's
    protocol.  All indices are exact; the closeness and reach-count
    families run on the bit-parallel {!Batch} kernel on either backend
    (one stream sweep per {!Batch.arrival_lanes} sources for closeness,
    per {!Batch.lane_width} for reach counts; float accumulation in
    per-source order, so values are bit-identical to a per-source
    loop), the flooding/journey-based ones on one pass per vertex. *)

val out_closeness : Tgraph.t -> float array
(** [out_closeness net] assigns each [u] the normalised harmonic
    closeness [ (1/(n-1)) · Σ_{v≠u} 1/δ(u,v) ] with [1/∞ = 0].  In
    [\[0, 1\]]; higher = reaches others earlier. *)

val in_closeness : Tgraph.t -> float array
(** Same over distances *into* each vertex: [Σ 1/δ(v,u)]. *)

val broadcast_time : Tgraph.t -> int array
(** Per source, the completion time of flooding from it ([max_int] when
    it cannot inform everyone) — temporal eccentricity as a centrality. *)

val best_broadcaster : Tgraph.t -> int * int
(** [(vertex, completion_time)] minimising {!broadcast_time}; the time
    is [max_int] when no vertex can inform everyone. *)

val reach_counts : Tgraph.t -> int array
(** Number of vertices each vertex can reach by a journey (itself
    included). *)

val rank : float array -> int array
(** Vertices sorted by descending score (ties by index). *)

val betweenness : Tgraph.t -> float array
(** Witness-journey betweenness: for every ordered reachable pair, one
    foremost journey is reconstructed and each *internal* vertex on it
    is credited; scores are normalised by the number of reachable pairs
    (so they sum to the mean internal-path length).  A pragmatic,
    deterministic variant of temporal betweenness — exact counting over
    all foremost journeys is #P-hard territory. *)

val cover_by_time : Tgraph.t -> deadline:int -> int list
(** Greedy minimum-ish set of sources whose floods jointly inform every
    vertex by [deadline] (classic ln n-approximate set cover over
    foremost balls).  Returns sources in pick order; a suffix of
    never-covered vertices (unreachable by anyone within the deadline)
    each appear as their own source.
    @raise Invalid_argument if [deadline < 0]. *)

val broadcast_cover : Tgraph.t -> int list
(** {!cover_by_time} at the network's full lifetime: how many
    simultaneous originators the schedule needs at all. *)
