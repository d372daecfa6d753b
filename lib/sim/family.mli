(** Graph-family specifications: the named workloads shared by the CLI
    and the experiment notes.

    A family plus a target vertex count yields a graph; some families
    approximate the count (the hypercube rounds to a power of two, the
    grid to a near-square rectangle). *)

type t =
  | Clique_directed
  | Clique_undirected
  | Star
  | Path
  | Cycle
  | Grid
  | Hypercube
  | Binary_tree
  | Wheel
  | Random_tree
  | Gnp of float  (** coefficient [c] in [p = c·ln n / n] *)

val names : string list
(** The accepted spellings, for help text. *)

val of_string : string -> (t, [ `Msg of string ]) result
(** Case-insensitive; [gnp:<c>] selects the coefficient. *)

val to_string : t -> string
(** Inverse of {!of_string} (canonical spelling). *)

val build : t -> Prng.Rng.t -> n:int -> Sgraph.Graph.t
(** The family's graph at (roughly) [n] vertices: an O(1)-memory
    arithmetic shape for [clique], [uclique], [star] and [grid] (see
    {!Sgraph.Gen}), a CSR for the others. *)
