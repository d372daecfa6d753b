(** Robustness of temporal reachability under vertex loss.

    The hostile-network story in reverse: instead of asking how fast
    information survives the schedule, ask how much reachability
    survives losing vertices — jamming attacks on the most central
    relays versus random failures.  Each step removes one vertex and
    re-measures the temporal connectivity of the residue. *)

type step = {
  removed : int;  (** original id of the vertex removed at this step *)
  survivors : int;  (** vertices remaining after the removal *)
  reachable_pairs : int;  (** ordered pairs still joined by journeys *)
  reachability : float;
      (** [reachable_pairs / (survivors·(survivors-1))]; [1.] when fewer
          than two survivors *)
  diameter : int option;  (** residual temporal diameter, if defined *)
}

type target = [ `Degree | `Closeness | `Betweenness ]

val targeted_attack : Tgraph.t -> by:target -> steps:int -> step list
(** Greedy attack: at each step, recompute the chosen centrality on the
    residual network and delete the top vertex.  Stops early when two
    vertices remain.
    @raise Invalid_argument if [steps < 0]. *)

val random_failures : Prng.Rng.t -> Tgraph.t -> steps:int -> step list
(** Same bookkeeping, uniformly random victims. *)
