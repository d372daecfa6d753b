module Graph = Sgraph.Graph
module Traverse = Sgraph.Traverse
module Metrics = Sgraph.Metrics
module Components = Sgraph.Components

let is_clique g =
  let n = Graph.n g in
  let expected =
    match Graph.kind g with
    | Directed -> n * (n - 1)
    | Undirected -> n * (n - 1) / 2
  in
  Graph.m g = expected
  &&
  let ok = ref true in
  for u = 0 to n - 1 do
    if Graph.out_degree g u <> n - 1 then ok := false
  done;
  !ok

let is_star g =
  (not (Graph.is_directed g))
  && Graph.n g >= 2
  && Graph.m g = Graph.n g - 1
  && Graph.out_degree g 0 = Graph.n g - 1

let star_two_labels g =
  if not (is_star g) then
    invalid_arg "Opt.star_two_labels: not a star with centre 0";
  Assignment.constant g ~a:2 (Label.of_list [ 1; 2 ])

let spanning_tree_upper g =
  let n = Graph.n g in
  if Graph.is_directed g then
    invalid_arg "Opt.spanning_tree_upper: directed graph";
  if not (Components.is_connected g) then
    invalid_arg "Opt.spanning_tree_upper: disconnected graph";
  if n = 1 then Assignment.of_fun g ~a:1 (fun _ -> Label.empty)
  else begin
    let depth, parent = Traverse.bfs_tree g 0 in
    let height = Array.fold_left Stdlib.max 0 depth in
    let h = Stdlib.max 1 height in
    let labels = Array.make (Graph.m g) Label.empty in
    for v = 1 to n - 1 do
      match Graph.find_edge g v parent.(v) with
      | Some e -> labels.(e) <- Label.of_list [ h - depth.(v) + 1; h + depth.(v) ]
      | None -> assert false
    done;
    Tgraph.create g ~lifetime:(2 * h) labels
  end

let default_pick ~edge:_ ~box:_ ~lo ~hi:_ = lo + 1

let boxes ?(pick = default_pick) g ~q =
  if not (Components.is_connected g) then
    invalid_arg "Opt.boxes: disconnected graph";
  let d = Stdlib.max 1 (Metrics.diameter g) in
  if q < d then invalid_arg "Opt.boxes: lifetime q below the diameter";
  let lambda = q / d in
  let labels =
    Array.init (Graph.m g) (fun e ->
        Label.of_list
          (List.init d (fun i ->
               let box = i + 1 in
               let lo = (box - 1) * lambda and hi = box * lambda in
               let label = pick ~edge:e ~box ~lo ~hi in
               if label <= lo || label > hi then
                 invalid_arg "Opt.boxes: pick left its box";
               label)))
  in
  Tgraph.create g ~lifetime:q labels

let lower_bound g = Graph.n g - 1
let star_value ~n = 2 * (n - 1)
let clique_value g = Graph.m g
let upper_bound g = 2 * (Graph.n g - 1)
