(** Result tables: the reproduction's replacement for the paper's "Tables".

    A table is a titled grid of typed cells; it renders to aligned ASCII
    (for the terminal), CSV (for downstream tooling), and Markdown (for
    EXPERIMENTS.md).  Every experiment in [Sim.Experiments] returns one. *)

type cell = Int of int | Float of float * int  (** value, decimals *)
          | Str of string | Pct of float  (** 0..1, rendered as percent *)

type t

val create : title:string -> columns:string list -> t
(** A fresh table; rows are appended with {!add_row}. *)

val title : t -> string
val columns : t -> string list

val add_row : t -> cell list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val rows : t -> cell list list
(** Rows in insertion order. *)

val set_degraded : t -> unit
(** Mark the table as holding partial results (a [--keep-going] run
    that dropped failed trials).  Every renderer then appends an
    explicit marker: a bracketed line in ASCII, a [#]-comment line in
    CSV, an emphasized line in Markdown. *)

val cell_to_string : cell -> string

val column_floats : t -> string -> float list
(** [column_floats t name] extracts a column's numeric values ([Int],
    [Float] and [Pct] cells; [Str] cells are skipped).
    @raise Not_found if no column has that name.

    Test support: test_sim reads experiment tables' columns through it to
    check their shape. *)

val to_ascii : t -> string
(** Box-drawing-free aligned text, title included. *)

val to_csv : t -> string
val to_markdown : t -> string
