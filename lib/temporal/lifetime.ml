module Graph = Sgraph.Graph
module Components = Sgraph.Components

let prefix_graph net ~k =
  let g = Tgraph.graph net in
  let keep = ref [] in
  Graph.iter_edges g (fun e u v ->
      if Label.min_label (Tgraph.labels net e) <= k then keep := (u, v) :: !keep);
  Graph.create (Graph.kind g) ~n:(Graph.n g) !keep

(* Connectivity of the prefix is monotone in k, so binary search on the
   sorted distinct minimum labels would work; a linear scan over the
   label values present keeps it simple and is fast enough (the check
   dominates anyway). *)
let prefix_connectivity_time net =
  let a = Tgraph.lifetime net in
  let rec search lo hi =
    (* Invariant: prefix at hi is connected (when hi < max_int). *)
    if lo >= hi then Some hi
    else
      let mid = (lo + hi) / 2 in
      if Components.is_connected (prefix_graph net ~k:mid) then search lo mid
      else search (mid + 1) hi
  in
  if Components.is_connected (prefix_graph net ~k:a) then search 1 a else None

let lower_bound ~n ~a = Stats.Bounds.thm5_lower_bound ~n ~a
