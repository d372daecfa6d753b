(* Shared test utilities: deterministic RNGs, tiny fixture networks, and
   QCheck generators for random graphs / temporal networks. *)

module Graph = Sgraph.Graph
module Rng = Prng.Rng
open Temporal

let rng ?(seed = 1234) () = Rng.create seed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_int_option = Alcotest.(check (option int))

(* Substring search, for assertions on rendered output. *)
let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then true
  else begin
    let rec scan i =
      i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
    in
    scan 0
  end

(* [f ()] and the words it allocates on this domain, major-heap blocks
   included.  The minor heap is emptied first so nothing older is
   promoted inside the window; the minor count comes from
   [Gc.minor_words], which is exact on OCaml 5.1 where the minor field
   of [Gc.counters] is not.  The probe itself costs about ten words. *)
let allocated_words f =
  Gc.minor ();
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let case name f = Alcotest.test_case name `Quick f
let qcase ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ?print gen prop)

(* A fixed 5-vertex temporal network used across suites:

     0 -1- 4,  0 -2,7- 1,  1 -5- 2,  1 -3,6- 3,  3 -4- 4,  2 -2,8- 4 *)
let fixture () =
  let g =
    Graph.create Undirected ~n:5
      [ (0, 1); (1, 2); (1, 3); (0, 4); (3, 4); (2, 4) ]
  in
  let labelled =
    [
      ((0, 1), [ 2; 7 ]); ((1, 2), [ 5 ]); ((1, 3), [ 3; 6 ]);
      ((0, 4), [ 1 ]); ((3, 4), [ 4 ]); ((2, 4), [ 2; 8 ]);
    ]
  in
  let labels = Array.make (Graph.m g) Label.empty in
  List.iter
    (fun ((u, v), times) ->
      labels.(Option.get (Graph.find_edge g u v)) <- Label.of_list times)
    labelled;
  Tgraph.create g ~lifetime:8 labels

(* A directed 3-cycle where only 0 -> 1 -> 2 works in time. *)
let directed_line () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Tgraph.create g ~lifetime:5
    [| Label.singleton 1; Label.singleton 3; Label.singleton 2 |]

(* CSR references for the clique, star and grid shapes: each topology's
   pairs in emission order, consed (so edge 0 is the last pair emitted;
   the star's list is built in order) and handed to [Graph.create].
   This is the numbering the shapes promise, derived independently of
   them; label draws go by edge id, so it is part of the output. *)

let csr_clique kind n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let keep =
        match kind with Graph.Directed -> u <> v | Graph.Undirected -> u < v
      in
      if keep then edges := (u, v) :: !edges
    done
  done;
  Graph.create kind ~n !edges

let csr_star n =
  Graph.create Undirected ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let csr_grid rows cols =
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Graph.create Undirected ~n:(rows * cols) !edges

(* QCheck generators.  Graphs are generated through our own deterministic
   generators driven by a generated seed: simple, and every failure is
   reproducible from the printed parameters. *)

let gen_params =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* seed = int_range 0 10_000 in
    let* a = int_range 1 12 in
    let* r = int_range 1 3 in
    return (n, seed, a, r))

let print_params (n, seed, a, r) =
  Printf.sprintf "(n=%d, seed=%d, a=%d, r=%d)" n seed a r

let random_graph ~n ~seed =
  let rng = Rng.create seed in
  (* Mix of density regimes, seed-determined. *)
  let p = 0.2 +. (0.6 *. Rng.float rng) in
  let g = Sgraph.Gen.gnp rng ~n ~p in
  if Graph.m g = 0 then Sgraph.Gen.path n else g

let random_tnet (n, seed, a, r) =
  let g = random_graph ~n ~seed in
  Assignment.uniform_multi (Rng.create (seed + 1)) g ~a ~r

(* Tighter variant for exhaustive-search cross-checks (path enumeration
   and subset scans are exponential). *)
let gen_small_nets =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* seed = int_range 0 10_000 in
    let* a = int_range 1 8 in
    let* r = int_range 1 2 in
    return (n, seed, a, r))

let gen_tree_params =
  QCheck2.Gen.(
    let* n = int_range 1 24 in
    let* seed = int_range 0 10_000 in
    return (n, seed))
