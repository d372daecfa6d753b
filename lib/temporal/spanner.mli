(** Redundancy removal: minimal reachability-preserving sublabelings.

    The paper's OPT (Definition 8) asks for the fewest labels that
    preserve reachability over *all* assignments — hard to even
    approximate in general (Mertzios et al. [21]).  The tractable
    relative implemented here: given an assignment that already
    preserves reachability, greedily delete labels while [Treach]
    survives, until no single label can be removed.  The result is an
    inclusion-minimal spanning sublabeling — an upper bound on OPT
    *within* the given availability, which is exactly what a network
    operator holding a concrete schedule can act on. *)

type result = {
  pruned : Tgraph.t;  (** the minimal sublabeling *)
  kept : int;  (** labels remaining *)
  removed : int;  (** labels deleted *)
}

val prune : ?order:[ `Latest_first | `Earliest_first ] -> Tgraph.t -> result
(** [prune net] requires [Reachability.treach net]; tries to delete
    labels one at a time (default order: latest labels first — late
    availability is most often redundant) and keeps every deletion that
    preserves [Treach].  O(L²·n·M) worst case with early-exit checks;
    intended for small/medium networks.
    @raise Invalid_argument if the input does not satisfy [Treach]. *)

val is_minimal : Tgraph.t -> bool
(** No single label can be removed without breaking [Treach].  (Every
    {!prune} output satisfies this; property-tested.)

    Test support: the oracle test_ops checks {!prune}'s output against. *)
