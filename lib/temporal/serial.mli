(** Serialization of temporal networks.

    A line-oriented text format (round-trips exactly) and a Graphviz DOT
    export for visualisation.  The text format:

    {v
    temporal directed n=4 lifetime=9
    # comments and blank lines are ignored
    0 1 : 2 5
    1 2 : 3
    2 3 :
    v}

    one edge per line, its label set after the colon (possibly empty). *)

val to_string : Tgraph.t -> string

val of_string : string -> (Tgraph.t, string) result
(** Parse; [Error message] pinpoints the offending line. *)

val of_file : string -> (Tgraph.t, string) result
val to_file : string -> Tgraph.t -> unit
(** Test support: writes the file test_connectivity reads back with
    {!of_file}. *)

val to_dot : ?name:string -> Tgraph.t -> string
(** Graphviz source; edges annotated with their label sets. *)

val to_gexf : Tgraph.t -> string
(** GEXF 1.2 with dynamic edges: each availability moment becomes an
    edge spell [<spell start=l end=l/>], which Gephi's timeline can
    animate — the visualization route for temporal networks. *)
