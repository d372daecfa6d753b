(** Counting foremost journeys.

    How many *distinct* earliest-arrival journeys does each pair have?
    Redundancy of optimal routes is a robustness signal in its own right
    (one foremost journey = one point of failure), and the counts refine
    betweenness from "a witness passes through v" to "how many optima
    do".  Computed by path counting over the time-expanded DAG
    ({!Expanded}): nodes sorted by time are a topological order, and for
    [v ≠ s] only travel arcs can enter the earliest-arrival node of [v],
    so the count at that node is exactly the number of foremost
    journeys.  Saturating arithmetic (counts cap at [max_int / 4]) keeps
    dense instances safe. *)

val foremost_journeys : Tgraph.t -> int -> int array
(** [foremost_journeys net s] gives, per vertex, the number of distinct
    foremost [(s,v)]-journeys ([1] at the source by convention, [0] if
    unreachable); values clip at [max_int / 4]. *)

