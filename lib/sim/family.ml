(* Parsing of graph-family specifications shared by the CLI commands.

   A family is a name plus the target vertex count; some families can only
   approximate the count (hypercube rounds to a power of two, grid to a
   near-square rectangle). *)

module Graph = Sgraph.Graph
module Gen = Sgraph.Gen

type t =
  | Clique_directed
  | Clique_undirected
  | Star
  | Path
  | Cycle
  | Grid
  | Hypercube
  | Binary_tree
  | Wheel
  | Random_tree
  | Gnp of float  (** coefficient c in p = c * ln n / n *)

let names =
  [ "clique"; "uclique"; "star"; "path"; "cycle"; "grid"; "hypercube";
    "btree"; "wheel"; "rtree"; "gnp"; "gnp:<c>" ]

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "clique" -> Ok Clique_directed
  | "uclique" -> Ok Clique_undirected
  | "star" -> Ok Star
  | "path" -> Ok Path
  | "cycle" -> Ok Cycle
  | "grid" -> Ok Grid
  | "hypercube" | "cube" -> Ok Hypercube
  | "btree" | "tree" -> Ok Binary_tree
  | "wheel" -> Ok Wheel
  | "rtree" -> Ok Random_tree
  | "gnp" -> Ok (Gnp 2.0)
  | _ ->
    (match String.split_on_char ':' s with
    | [ "gnp"; c ] -> (
      match float_of_string_opt c with
      | Some c when c > 0. -> Ok (Gnp c)
      | _ -> Error (`Msg ("bad gnp coefficient: " ^ c)))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf "unknown graph family %S (choose from: %s)" s
              (String.concat ", " names))))

let to_string = function
  | Clique_directed -> "clique"
  | Clique_undirected -> "uclique"
  | Star -> "star"
  | Path -> "path"
  | Cycle -> "cycle"
  | Grid -> "grid"
  | Hypercube -> "hypercube"
  | Binary_tree -> "btree"
  | Wheel -> "wheel"
  | Random_tree -> "rtree"
  | Gnp c -> Printf.sprintf "gnp:%g" c

(* The near-square rectangle a grid of about [n] cells takes. *)
let grid_dims n =
  let rows = Stdlib.max 1 (int_of_float (Float.sqrt (float_of_int n))) in
  (rows, (n + rows - 1) / rows)

let build family rng ~n =
  match family with
  | Clique_directed -> Gen.clique Directed n
  | Clique_undirected -> Gen.clique Undirected n
  | Star -> Gen.star n
  | Path -> Gen.path n
  | Cycle -> Gen.cycle (Stdlib.max 3 n)
  | Grid ->
    let rows, cols = grid_dims n in
    Gen.grid rows cols
  | Hypercube ->
    let d = Stdlib.max 1 (int_of_float (Float.round (Float.log2 (float_of_int n)))) in
    Gen.hypercube d
  | Binary_tree -> Gen.binary_tree n
  | Wheel -> Gen.wheel (Stdlib.max 4 n)
  | Random_tree -> Gen.random_tree rng n
  | Gnp c ->
    let p = Float.min 1. (c *. log (float_of_int n) /. float_of_int n) in
    Gen.gnp rng ~n ~p
