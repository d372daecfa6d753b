(** Arrival profiles: earliest arrival as a function of departure time.

    For a fixed source, [δ_{t0}(s, v)] — the earliest arrival of a
    journey departing at time [>= t0] — is a non-decreasing step
    function of [t0] with breakpoints only at label values.  The profile
    materialises it as a compact list of steps, which is what a sender
    consults to answer "if I wait until [t0], when does my message
    land?" (and what makes the lifetime effects of Theorem 5 visible
    pair by pair). *)

type step = {
  from_time : int;  (** departures in [from_time, until_time] ... *)
  until_time : int;
  arrival : int option;  (** ... arrive at this time ([None]: never) *)
}

val compute : Tgraph.t -> source:int -> target:int -> step list
(** Steps in increasing departure time, covering [1 .. lifetime + 1];
    consecutive steps have distinct arrivals (maximally merged).  The
    final step is always [None]-valued or ends at [lifetime + 1].
    @raise Invalid_argument on bad endpoints. *)

val arrival_at : step list -> int -> int option
(** Evaluate the profile at a departure time.
    @raise Not_found if the time precedes the profile's first step.

    Test support: test_taxonomy and test_crosschecks read {!compute}'s
    steps through it. *)

val latest_useful_departure : step list -> int option
(** The last departure time with a finite arrival, if any. *)

val pp : Format.formatter -> step list -> unit
