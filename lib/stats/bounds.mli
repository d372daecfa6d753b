(** Theoretical quantities from the paper, as executable formulas.

    The experiment tables print these side by side with measurements:
    the Theorem 7 sufficient label count, its coupon-collector
    refinement (§5, final note), and the Theorem 5 lower bound, with the
    Erdős–Rényi connectivity threshold that drives it. *)

val harmonic : int -> float
(** [harmonic d] is [H_d = 1 + 1/2 + ... + 1/d]. *)

val thm7_labels : diameter:int -> n:int -> float
(** Theorem 7: [r > 2·d(G)·ln n] random labels per edge suffice for w.h.p.
    temporal reachability. *)

val coupon_labels : diameter:int -> n:int -> m:int -> float
(** Coupon-collector refinement (§5 note): enough labels that every one of
    the [d(G)] boxes of every edge is hit w.h.p.:
    [d·(ln d + ln(m·n))] — smaller than {!thm7_labels} for large diameters. *)

val gnp_connectivity_threshold : n:int -> float
(** [ln n / n], the sharp threshold for connectivity of [G(n,p)] used in
    the proofs of Theorem 5 and the Ω(log n) remark. *)

val thm5_lower_bound : n:int -> a:int -> float
(** Theorem 5: with lifetime [a >= n], the temporal diameter is
    [Ω((a/n)·ln n)]; this is the bound value [(a/n)·ln n]. *)
