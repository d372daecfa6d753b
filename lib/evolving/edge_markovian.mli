(** Edge-Markovian evolving graphs (Clementi et al. [8], paper §1.2).

    A dynamic-network model adjacent to the paper's: every potential
    edge of [K_n] flips state independently each round — an absent edge
    appears with probability [p_up], a present edge disappears with
    probability [p_down].  Unlike the random temporal networks of the
    paper (whose whole schedule is fixed by the input), fresh randomness
    arrives every round; the stationary density is
    [p_up / (p_up + p_down)].  The module simulates the chain and its
    flooding time, the quantity [8] proves logarithmic. *)

type t
(** Mutable chain state over the edges of a complete graph. *)

val create :
  ?initial_density:float -> Prng.Rng.t -> n:int -> p_up:float -> p_down:float -> t
(** Each potential edge starts present independently with probability
    [initial_density] (default: the stationary density).
    @raise Invalid_argument unless [n >= 1] and the probabilities are in
    [\[0,1\]] with [p_up + p_down > 0]. *)

val n : t -> int

val density : t -> float
(** Fraction of the [n(n-1)/2] potential edges currently present. *)

val stationary_density : t -> float

val step : t -> unit
(** Advance one round (every edge flips per its transition law). *)

type flood = {
  completed : bool;
  rounds : int;  (** rounds used (= the cap when not completed) *)
  informed : int;
}

val flood : ?max_rounds:int -> t -> source:int -> flood
(** Flood a message: each round, first {!step}, then every informed
    vertex informs its current neighbours.  Default cap:
    [8·(log2 n + 2) / max(p_stationary, 1/n)]-ish, generous. *)
