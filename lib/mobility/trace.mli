(** Contact traces → temporal networks.

    Turns a chronological contact log (from {!Waypoint}, or parsed from
    the outside world) into a {!Temporal.Tgraph}: each contact
    [(a, b, t)] becomes the availability label [t] on the undirected
    edge [{a, b}].  The derived network then answers every question the
    library asks of synthetic ones — foremost journeys, flooding,
    reachability, centrality — which is how the paper's model meets
    trace-driven evaluation. *)

val of_contacts :
  n:int -> lifetime:int -> Waypoint.contact list -> Temporal.Tgraph.t
(** @raise Invalid_argument on endpoints outside [0..n-1], times outside
    [1..lifetime], or a self-contact. *)

val of_waypoint_run :
  Prng.Rng.t -> agents:int -> size:int -> ticks:int -> Temporal.Tgraph.t
(** Simulate a fresh random-waypoint system for [ticks] ticks and
    convert its contact log (lifetime = [ticks]). *)

type stats = {
  contacts : int;  (** total contact events *)
  edges : int;  (** distinct agent pairs that ever met *)
  mean_labels_per_edge : float;
  density : float;  (** edges / C(n,2) *)
}

val stats : Temporal.Tgraph.t -> stats

(** {2 Trace I/O}

    The interchange format real contact datasets ship in: one event per
    line, [time agent agent], ['#'] comments and blank lines ignored. *)

val contacts_to_string : Waypoint.contact list -> string
(** Test support: writes the text test_models parses back with
    {!contacts_of_string}. *)

val contacts_of_string : string -> (Waypoint.contact list, string) result
(** Events are normalised ([a < b]) and returned chronologically sorted;
    [Error] pinpoints the offending line. *)

val load : ?n:int -> ?lifetime:int -> string -> (Temporal.Tgraph.t, string) result
(** [load path] parses a trace file and builds the temporal network;
    the agent count defaults to [max id + 1] and the lifetime to the
    last event time. *)
