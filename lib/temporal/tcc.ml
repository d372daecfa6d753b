module Graph = Sgraph.Graph
module Components = Sgraph.Components

let reachability_graph net =
  let n = Tgraph.n net in
  let edges = ref [] in
  for u = 0 to n - 1 do
    let res = Foremost.run net u in
    for v = 0 to n - 1 do
      if v <> u && Foremost.distance res v <> None then
        edges := (u, v) :: !edges
    done
  done;
  Graph.create Directed ~n !edges

let scc net = Components.strongly_connected_components (reachability_graph net)

let scc_count net =
  let comp = scc net in
  Array.fold_left Stdlib.max (-1) comp + 1

let is_temporally_connected net =
  let n = Tgraph.n net in
  n <= 1 || Graph.m (reachability_graph net) = n * (n - 1)

let condensation net =
  let reach = reachability_graph net in
  let comp = Components.strongly_connected_components reach in
  let k = Array.fold_left Stdlib.max (-1) comp + 1 in
  let arcs = Hashtbl.create 16 in
  Graph.iter_edges reach (fun _ u v ->
      if comp.(u) <> comp.(v) then Hashtbl.replace arcs (comp.(u), comp.(v)) ());
  let edges = Hashtbl.fold (fun arc () acc -> arc :: acc) arcs [] in
  (Graph.create Directed ~n:(Stdlib.max k 0) edges, comp)

let mutual_graph net =
  let reach = reachability_graph net in
  let n = Graph.n reach in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Graph.mem_edge reach u v && Graph.mem_edge reach v u then
        edges := (u, v) :: !edges
    done
  done;
  Graph.create Undirected ~n !edges

let popcount mask =
  let rec count mask acc =
    if mask = 0 then acc else count (mask land (mask - 1)) (acc + 1)
  in
  count mask 0

let lowest_bit mask =
  let rec scan i = if mask land (1 lsl i) <> 0 then i else scan (i + 1) in
  scan 0

let largest_mutual_clique_exhaustive net =
  let n = Tgraph.n net in
  if n > 24 then
    invalid_arg "Tcc.largest_mutual_clique_exhaustive: network too large";
  if n = 0 then 0
  else begin
    let mutual = mutual_graph net in
    let neighbor_mask = Array.make n 0 in
    Graph.iter_edges mutual (fun _ u v ->
        neighbor_mask.(u) <- neighbor_mask.(u) lor (1 lsl v);
        neighbor_mask.(v) <- neighbor_mask.(v) lor (1 lsl u));
    (* Branch and bound: grow a clique over candidate vertices >= the
       last chosen one; prune when even taking all candidates loses. *)
    let best = ref 1 in
    let rec extend size candidates =
      if size + popcount candidates > !best then
        if candidates = 0 then best := Stdlib.max !best size
        else begin
          let rest = ref candidates in
          while !rest <> 0 do
            let v = lowest_bit !rest in
            rest := !rest land lnot (1 lsl v);
            (* Either take v (restrict to its neighbours) ... *)
            extend (size + 1) (!rest land neighbor_mask.(v));
            (* ... or skip it: handled by the loop continuing with rest. *)
            if size + popcount !rest <= !best then rest := 0
          done;
          best := Stdlib.max !best size
        end
    in
    extend 0 ((1 lsl n) - 1);
    !best
  end
