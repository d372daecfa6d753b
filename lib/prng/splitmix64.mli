(** SplitMix64 pseudo-random generator (Steele, Lea & Flood, OOPSLA'14).

    A tiny, fast, well-distributed 64-bit generator whose main role here is
    seeding and splitting: it expands a single integer seed into as many
    independent-looking 64-bit streams as needed.  All experiment
    reproducibility in this repository bottoms out in this module. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed. *)

val of_int64 : int64 -> t
(** [of_int64 seed] builds a generator from a full 64-bit seed. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)
