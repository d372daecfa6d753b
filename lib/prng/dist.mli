(** Label distributions for F-CASE random temporal networks (paper §2, Note).

    The paper's main results use UNI-CASE (uniform single label); the note
    after Definition 4 sketches F-RTNs where labels follow an arbitrary
    distribution [F] over [{1..a}].  This module realises that extension:
    a first-class description of a distribution over [{1..a}] plus a
    sampler, so assignments can be swapped per experiment. *)

type t =
  | Uniform  (** every label in [{1..a}] with probability [1/a] — UNI-CASE *)
  | Geometric of float
      (** success probability [p], truncated to [{1..a}] by resampling
          (i.e. conditioned on the value being [<= a]) *)
  | Zipf of float  (** exponent [s], support [{1..a}] *)
  | Point of int
      (** the constant label [min k a] — degenerate, for ablations *)

val to_string : t -> string

val draw : t -> a:int -> Rng.t -> int
(** [draw dist ~a rng] samples one label from [dist] restricted to [{1..a}].
    @raise Invalid_argument if [a <= 0]. *)

module Sampler : sig
  type dist := t

  type t
  (** A distribution compiled against a fixed lifetime [a]; amortises
      set-up cost (e.g. Zipf cumulative tables) across many draws. *)

  val create : dist -> a:int -> t
  val draw : t -> Rng.t -> int
end
