(** Sampling routines on top of {!Rng}.

    Everything the experiments draw — labels, subsets, permutations,
    distribution variates — goes through this module so that tests can pin
    the exact distributional contracts down. *)

val shuffle : Rng.t -> 'a array -> unit
(** [shuffle rng a] permutes [a] in place, uniformly (Fisher–Yates). *)

val choose_distinct : Rng.t -> k:int -> n:int -> int array
(** [choose_distinct rng ~k ~n] is a uniform [k]-subset of [0..n-1], in
    random order (partial Fisher–Yates; O(n) space, O(k) swaps).
    @raise Invalid_argument if [k < 0 || k > n]. *)

val geometric : Rng.t -> p:float -> int
(** [geometric rng ~p] is the number of Bernoulli([p]) trials up to and
    including the first success; support [{1, 2, ...}].
    @raise Invalid_argument unless [0 < p <= 1]. *)

module Zipf_cache : sig
  type t

  val create : s:float -> n:int -> t
  (** The Zipf distribution with exponent [s] on [{1..n}], drawn by
      inverting the exact CDF (binary search on cumulative weights);
      precomputes the cumulative weights once. *)

  val draw : t -> Rng.t -> int
  (** O(log n) per draw. *)
end
