(** Random walks on temporal networks.

    The paper's related work (§1.2) cites Avin, Koucký & Lotker [2] on
    cover times of random walks over evolving graphs — walks that can
    only move when an edge happens to be available.  Here the walker
    lives on a fixed availability schedule: at each time step [t] it
    looks at the arcs leaving its current vertex that are available
    exactly at [t], moves along one uniformly at random, and stays put
    when there is none.  Lazy variants (move with probability [1 - lazy]
    when possible) are supported because pure temporal walks can be
    forced into corners.

    Contrast with {!Flooding}: the walk is a single trajectory, so its
    cover behaviour measures how *navigable* the schedule is, not how
    fast information floods. *)

type trajectory = {
  positions : int array;
      (** [positions.(t)] = vertex occupied after step [t]; index 0 is
          the source before time 1, so length = lifetime + 1 *)
  first_visit : int array;
      (** per vertex: the step of its first visit; [max_int] = never;
          [0] at the source *)
  visited : int;  (** distinct vertices visited *)
  cover_time : int option;
      (** first step by which every vertex was visited *)
  moves : int;  (** steps on which the walker actually moved *)
}

val walk :
  ?laziness:float -> Prng.Rng.t -> Tgraph.t -> source:int -> trajectory
(** Run one walk over the network's whole lifetime.
    @raise Invalid_argument on a bad source or [laziness] outside
    [\[0,1\]]. *)

val mean_coverage :
  ?laziness:float ->
  Prng.Rng.t ->
  Tgraph.t ->
  trials:int ->
  float * float
(** [(mean fraction of vertices visited, cover rate)] over walks from
    uniformly random sources on the given instance.

    Test support: test_models checks {!walk}'s coverage of a densely
    available clique through it. *)

val pack :
  ?laziness:float ->
  Prng.Rng.t ->
  Tgraph.t ->
  sources:int list ->
  int * int option
(** Several independent walkers released simultaneously (the
    multi-walker setting of [2]): [(jointly visited vertices, joint
    cover time)].  Duplicate sources are allowed.

    Test support: test_models checks {!walk}'s first visits, and a fully
    lazy walk staying put, through it. *)
