(** Monte-Carlo estimators of the paper's statistical quantities. *)

type diameter_stats = {
  trials : int;
  summary : Stats.Summary.t;
      (** instance temporal diameters over connected instances *)
  samples : float array;
      (** the raw per-instance diameters behind [summary], for
          distribution-aware post-processing (bootstrap CIs,
          quantiles) *)
  disconnected : int;
      (** instances in which some ordered pair had no journey at all
          (their diameter is undefined / infinite) *)
}

val temporal_diameter :
  Prng.Rng.t ->
  Sgraph.Graph.t ->
  a:int ->
  r:int ->
  trials:int ->
  diameter_stats
(** Sample [trials] assignments of [r] i.i.d. uniform labels per edge on
    [{1..a}] and compute each instance's exact max-pair temporal distance
    — the quantity whose expectation is the Temporal Diameter
    (Definition 5).  Each instance diameter runs on the bit-parallel
    batch kernel (ceil(n/W) sweeps instead of n), which keeps exact
    all-pairs affordable at n in the thousands. *)

val clique_temporal_diameter :
  Prng.Rng.t -> n:int -> a:int -> trials:int -> diameter_stats
(** {!temporal_diameter} on the directed clique with [r = 1]: the
    (normalized when [a = n]) U-RTN of §3. *)

val derived_clique_diameter :
  Prng.Rng.t -> n:int -> sample:int option -> trials:int -> diameter_stats
(** Normalized U-RTN directed-clique diameters on the {e active}
    {!Backend}: each trial draws one 64-bit seed and realises the
    derived instance lazily (Implicit) or as its materialized dense
    twin (Dense) — label-identical either way, so the stats are
    byte-equal across backends.  [sample = Some k] replaces the exact
    all-pairs diameter by the max eccentricity over [k] random
    sources (a lower estimate, for sizes where even the batched exact
    kernel is too dear). *)

val flooding_time :
  Prng.Rng.t ->
  Sgraph.Graph.t ->
  a:int ->
  r:int ->
  trials:int ->
  Stats.Summary.t * int
(** Mean §3.5-protocol broadcast completion time from a random source on
    sampled assignments; the [int] counts trials that failed to inform
    everyone.

    Test support: test_sim checks through it that
    [Flooding.broadcast_time] completes on sampled multi-label cliques. *)

type expansion_stats = {
  attempts : int;
  success_rate : float;
  arrival : Stats.Summary.t;  (** over successful attempts *)
  flooding_arrival : Stats.Summary.t;
      (** optimal (foremost) arrival at the same targets, for comparison *)
  horizon : int;
}

val expansion :
  Prng.Rng.t ->
  n:int ->
  params:Temporal.Expansion.params ->
  instances:int ->
  pairs_per_instance:int ->
  expansion_stats
(** Run Algorithm 1 on fresh normalized U-RTN directed cliques, for
    random (s ≠ t) pairs, recording success rate and the arrival-time gap
    to the true foremost journey. *)

val gnp_connectivity :
  Prng.Rng.t -> n:int -> p:float -> trials:int -> float
(** Empirical probability that [G(n,p)] is connected. *)
