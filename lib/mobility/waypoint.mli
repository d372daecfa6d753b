(** Random-waypoint mobility on a torus grid.

    The paper motivates random availability with "many networks of today
    have links that are not always available"; the canonical source of
    such schedules is mobility.  This module simulates agents walking a
    [size × size] torus — each picks a uniform waypoint, steps one cell
    per tick towards it (torus-shortest moves), picks a new waypoint on
    arrival — and records a *contact* whenever two agents share a cell
    at a tick.  The contact log is the raw material for trace-driven
    temporal networks ({!Trace}). *)

type t

val create : Prng.Rng.t -> agents:int -> size:int -> t
(** Agents start at uniform cells.
    @raise Invalid_argument unless [agents >= 1] and [size >= 2]. *)

val agents : t -> int
val size : t -> int
val tick : t -> int
(** Ticks simulated so far. *)

val positions : t -> (int * int) array
(** Current cell of each agent (do not mutate).

    Test support: the mobility tests check {!create}'s placement and
    {!step}'s one-cell moves through it. *)

val step : t -> unit
(** Advance one tick: every agent moves one cell towards its waypoint
    (torus metric), re-rolling the waypoint when reached. *)

type contact = { a : int; b : int; time : int }
(** Agents [a < b] shared a cell at [time] (1-based tick index). *)

val run : t -> ticks:int -> contact list
(** Simulate [ticks] further steps, returning all contacts observed, in
    chronological order.
    @raise Invalid_argument if [ticks < 0]. *)
