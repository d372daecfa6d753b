(** Lifetime effects (paper §3.6, Theorem 5).

    With one uniform label per edge on [{1..a}], the prefix of the
    network up to time [k] is an Erdős–Rényi graph [G(n, k/a)]; since
    [G(n,p)] is w.h.p. disconnected below [p = ln n / n], the temporal
    diameter must exceed [(a/n)·ln n] asymptotically when [a >> n].
    These helpers expose that coupling. *)

val prefix_graph : Tgraph.t -> k:int -> Sgraph.Graph.t
(** The static graph formed by the edges having at least one label
    [<= k] — the "edge-induced subgraph of arcs with labels up to k" in
    Theorem 5's proof. *)

val prefix_connectivity_time : Tgraph.t -> int option
(** Smallest [k] such that {!prefix_graph} at [k] is connected (ignoring
    direction); [None] if even the full underlying graph is not.  A lower
    bound witness: no temporal network can have finished joining all
    pairs before its prefix is connected. *)

val lower_bound : n:int -> a:int -> float
(** Theorem 5's bound [(a/n)·ln n] (meaningful for [a >= n]). *)
