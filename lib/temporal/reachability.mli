(** Temporal reachability and the [Treach] property (paper, Definition 6).

    An assignment *preserves the reachability* of [G] when for every
    ordered pair [(u, v)]: a static path [u → v] exists iff a journey
    [u → v] exists in [(G, L)].  (Labels can never create reachability,
    so only the forward implication can fail.) *)

val temporally_reachable : Tgraph.t -> int -> int -> bool
(** Is there a journey from the first vertex to the second? *)

val treach : Tgraph.t -> bool
(** Does the network satisfy [Treach]?  Checked one batched
    reachability sweep ({!Batch.sweep_reach}) at a time, with early
    exit on the first failing batch. *)

val missing_pairs : Tgraph.t -> (int * int) list
(** All ordered pairs that are statically but not temporally reachable
    (empty iff {!treach}). *)

val reachable_pair_count : Tgraph.t -> int
(** Ordered pairs [u <> v] joined by a journey. *)

val static_reachable_pair_count : Tgraph.t -> int
(** Ordered pairs [u <> v] joined by a static path — the denominator
    [Treach] is measured against. *)

val reachability_ratio : Tgraph.t -> float
(** [reachable_pair_count / static_reachable_pair_count]; [1.0] iff
    {!treach} (and for graphs with no static pairs at all). *)
