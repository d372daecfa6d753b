module Graph = Sgraph.Graph

let shift net d =
  let g = Tgraph.graph net in
  let lifetime = Tgraph.lifetime net + Stdlib.max 0 d in
  let labels =
    Array.init (Graph.m g) (fun e ->
        let shifted = List.map (fun l -> l + d) (Label.to_list (Tgraph.labels net e)) in
        List.iter
          (fun l -> if l < 1 then invalid_arg "Ops.shift: label would drop below 1")
          shifted;
        Label.of_list shifted)
  in
  Tgraph.create g ~lifetime labels

let scale net k =
  if k < 1 then invalid_arg "Ops.scale: k must be >= 1";
  let g = Tgraph.graph net in
  let labels =
    Array.init (Graph.m g) (fun e ->
        Label.of_list (List.map (fun l -> k * l) (Label.to_list (Tgraph.labels net e))))
  in
  Tgraph.create g ~lifetime:(k * Tgraph.lifetime net) labels

let reverse_time net =
  let g = Graph.reverse (Tgraph.graph net) in
  let a = Tgraph.lifetime net in
  (* Graph.reverse preserves edge ids, so the label arrays line up. *)
  let labels =
    Array.init (Graph.m g) (fun e ->
        Label.of_list (List.map (fun l -> a + 1 - l) (Label.to_list (Tgraph.labels net e))))
  in
  Tgraph.create g ~lifetime:a labels

let union a b =
  let ga = Tgraph.graph a and gb = Tgraph.graph b in
  if Graph.kind ga <> Graph.kind gb || Graph.n ga <> Graph.n gb
     || Graph.edges ga <> Graph.edges gb
  then invalid_arg "Ops.union: different underlying graphs";
  let lifetime = Stdlib.max (Tgraph.lifetime a) (Tgraph.lifetime b) in
  Assignment.of_fun ga ~a:lifetime (fun e ->
      Label.union (Tgraph.labels a e) (Tgraph.labels b e))

let induced net vertices =
  let g = Tgraph.graph net in
  let n = Graph.n g in
  let keep = List.sort_uniq compare vertices in
  if keep = [] then invalid_arg "Ops.induced: empty vertex list";
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Ops.induced: vertex out of range")
    keep;
  let old_of_new = Array.of_list keep in
  let new_of_old = Array.make n (-1) in
  Array.iteri (fun idx v -> new_of_old.(v) <- idx) old_of_new;
  let edges = ref [] and labels = ref [] in
  Graph.iter_edges g (fun e u v ->
      if new_of_old.(u) >= 0 && new_of_old.(v) >= 0 then begin
        edges := (new_of_old.(u), new_of_old.(v)) :: !edges;
        labels := Tgraph.labels net e :: !labels
      end);
  let sub =
    Graph.create (Graph.kind g) ~n:(Array.length old_of_new) (List.rev !edges)
  in
  let label_array = Array.of_list (List.rev !labels) in
  (Tgraph.create sub ~lifetime:(Tgraph.lifetime net) label_array, old_of_new)
