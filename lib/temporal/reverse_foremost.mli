(** Reverse-foremost journeys: latest departure towards a target.

    The dual of {!Foremost}: for a fixed target [t] and deadline, how
    late can each vertex still be reached *from*?  One sweep over the
    time-edge stream in decreasing label order.  This is the
    "latest-departure journey" of the taxonomy of Bui-Xuan, Ferreira &
    Jarry [6], which the paper cites for the continuous-time setting;
    here in the discrete-label model.

    The central quantity is the {e latest presence time} [L(v)]: the
    largest [x] such that being at [v] at time [x] still allows reaching
    [t] by the deadline (i.e. some [(v,t)]-journey uses labels in
    [(x, deadline]] only).  [L(t) = deadline] by the empty journey. *)

type result

val run : ?deadline:int -> Tgraph.t -> int -> result
(** [run ?deadline net t] computes latest presence times towards [t];
    the deadline defaults to the network's lifetime.
    @raise Invalid_argument on a bad target or non-positive deadline. *)

val target : result -> int
val deadline : result -> int

val latest_presence : result -> int -> int option
(** [L(v)]; [None] when no journey from [v] reaches [t] by the deadline
    at all.  [Some deadline] for [t] itself.

    Test support: test_ops and test_taxonomy check {!run}'s latest
    departures through it. *)

val latest_departure : result -> int -> int option
(** The largest first-label over all [(v,t)]-journeys meeting the
    deadline — how late an actual transmission can start.  [None] when
    unreachable, and for [t] itself (a departure needs an edge). *)

val reachable_count : result -> int
(** Vertices that can reach the target (target included).

    Test support: test_taxonomy checks {!run}'s reach through it. *)

val journey_from : Tgraph.t -> result -> int -> Journey.t option
(** A witness journey departing at {!latest_departure}; [Some []] for
    the target itself. *)
