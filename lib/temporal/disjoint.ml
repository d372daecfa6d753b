module Maxflow = Flow.Maxflow

let validate net ~s ~t =
  let n = Tgraph.n net in
  if s < 0 || s >= n || t < 0 || t >= n then
    invalid_arg "Disjoint: endpoint out of range";
  if s = t then invalid_arg "Disjoint: s = t"

let max_edge_disjoint net ~s ~t =
  validate net ~s ~t;
  let expanded = Expanded.build net in
  let node_count = Expanded.node_count expanded in
  (* One extra node as a dedicated sink keeps the mapping trivial even
     when t has no arrival events. *)
  let flow = Maxflow.create (node_count + 1) in
  let sink = node_count in
  Array.iter
    (fun arc ->
      match arc with
      | Expanded.Wait { from_id; to_id } ->
        ignore (Maxflow.add_edge flow ~src:from_id ~dst:to_id ~capacity:max_int)
      | Expanded.Travel { from_id; to_id; stream_index = _ } ->
        ignore (Maxflow.add_edge flow ~src:from_id ~dst:to_id ~capacity:1))
    (Expanded.arcs expanded);
  (* Every arrival event of t drains into the sink. *)
  for id = 0 to node_count - 1 do
    let v, time = Expanded.node expanded id in
    if v = t && time > 0 then
      ignore (Maxflow.add_edge flow ~src:id ~dst:sink ~capacity:max_int)
  done;
  Maxflow.max_flow flow ~source:(Expanded.start_node expanded s) ~sink

(* --------------------------------------------------------------- *)
(* Exhaustive vertex-disjointness machinery (small n only) *)

(* All inclusion-minimal internal-vertex masks of simple temporal
   (s,t)-paths. *)
let internal_masks net ~s ~t =
  let masks = ref [] in
  let rec explore v time visited mask =
    Tgraph.iter_crossings_out net v (fun e target ->
        Tgraph.iter_edge_labels net e (fun label ->
            if label > time then begin
              if target = t then masks := mask :: !masks
              else if visited land (1 lsl target) = 0 then
                explore target label
                  (visited lor (1 lsl target))
                  (mask lor (1 lsl target))
            end))
  in
  explore s 0 (1 lsl s) 0;
  (* Keep only minimal masks: a superset mask never helps packing or
     separating. *)
  let all = List.sort_uniq compare !masks in
  List.filter
    (fun mask ->
      not
        (List.exists
           (fun other -> other <> mask && other land mask = other)
           all))
    all

let max_vertex_disjoint_exhaustive net ~s ~t =
  validate net ~s ~t;
  let masks = Array.of_list (internal_masks net ~s ~t) in
  let count = Array.length masks in
  (* Branch and bound over pairwise-disjoint subsets of masks. *)
  let best = ref 0 in
  let rec pack index used chosen =
    if chosen + (count - index) > !best then
      if index = count then best := Stdlib.max !best chosen
      else begin
        if masks.(index) land used = 0 then
          pack (index + 1) (used lor masks.(index)) (chosen + 1);
        pack (index + 1) used chosen
      end
  in
  pack 0 0 0;
  !best

(* Is there an (s,t)-journey avoiding the blocked vertex set? *)
let reachable_avoiding net ~s ~t blocked =
  let n = Tgraph.n net in
  let arrival = Array.make n max_int in
  arrival.(s) <- 0;
  Tgraph.iter_time_edges net (fun ~src ~dst ~label ->
      if
        blocked land (1 lsl src) = 0
        && blocked land (1 lsl dst) = 0
        && arrival.(src) < label
        && label < arrival.(dst)
      then arrival.(dst) <- label);
  arrival.(t) < max_int

let min_vertex_separator_exhaustive net ~s ~t =
  validate net ~s ~t;
  let n = Tgraph.n net in
  if n > 20 then
    invalid_arg "Disjoint.min_vertex_separator_exhaustive: network too large";
  let internal =
    List.filter (fun v -> v <> s && v <> t) (List.init n Fun.id)
  in
  let rec subsets_of_size k = function
    | [] -> if k = 0 then [ 0 ] else []
    | v :: rest ->
      if k = 0 then [ 0 ]
      else
        List.map (fun mask -> mask lor (1 lsl v)) (subsets_of_size (k - 1) rest)
        @ subsets_of_size k rest
  in
  let rec search k =
    if k > List.length internal then max_int
    else if
      List.exists
        (fun blocked -> not (reachable_avoiding net ~s ~t blocked))
        (subsets_of_size k internal)
    then k
    else search (k + 1)
  in
  search 0

(* A 6-vertex directed network exhibiting the temporal Menger gap,
   found by exhaustive search over random small instances and verified
   by the test suite: the (0,5)-journeys have internal vertex sets
   {3,4}, {2,4} and {2,3} — pairwise intersecting, so no two journeys
   are vertex-disjoint — yet no single vertex hits all three, so the
   minimum temporal separator has size 2. *)
let menger_gap_example () =
  let s = 0 and t = 5 in
  let edges =
    [
      ((5, 4), [ 1 ]);
      ((5, 2), [ 3 ]);
      ((5, 1), [ 2 ]);
      ((4, 5), [ 7 ]);
      ((3, 4), [ 5 ]);
      ((3, 2), [ 3 ]);
      ((3, 0), [ 2 ]);
      ((2, 5), [ 5 ]);
      ((2, 4), [ 6 ]);
      ((1, 5), [ 6 ]);
      ((0, 3), [ 2 ]);
      ((0, 2), [ 5 ]);
    ]
  in
  let g =
    Sgraph.Graph.create Directed ~n:6 (List.map fst edges)
  in
  let labels =
    Array.of_list (List.map (fun (_, ls) -> Label.of_list ls) edges)
  in
  (Tgraph.create g ~lifetime:7 labels, s, t)
