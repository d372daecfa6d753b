(** Disjoint-set forest with union by rank and path compression. *)

type t

val create : int -> t
(** [create n] — [n] singleton sets [{0} .. {n-1}]. *)

val find : t -> int -> int
(** Canonical representative of the element's set. *)

val union : t -> int -> int -> bool
(** Merge the two sets; [true] iff they were distinct. *)
