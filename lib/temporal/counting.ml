let saturated = max_int / 4

let saturating_add a b =
  if a >= saturated - b then saturated else a + b

let foremost_journeys net s =
  let n = Tgraph.n net in
  let expanded = Expanded.build net in
  let node_count = Expanded.node_count expanded in
  let ways = Array.make node_count 0 in
  ways.(Expanded.start_node expanded s) <- 1;
  (* Topological order: node time strictly increases along every arc, so
     sorting node ids by time works; ties carry no arcs between them. *)
  let order = Array.init node_count Fun.id in
  Array.sort
    (fun i j ->
      compare (snd (Expanded.node expanded i)) (snd (Expanded.node expanded j)))
    order;
  (* Arcs grouped by source for a single pass in topological order. *)
  let out = Array.make node_count [] in
  Array.iter
    (fun arc ->
      match arc with
      | Expanded.Wait { from_id; to_id } | Expanded.Travel { from_id; to_id; _ }
        -> out.(from_id) <- to_id :: out.(from_id))
    (Expanded.arcs expanded);
  Array.iter
    (fun id ->
      if ways.(id) > 0 then
        List.iter
          (fun to_id -> ways.(to_id) <- saturating_add ways.(to_id) ways.(id))
          out.(id))
    order;
  (* Earliest-arrival node per vertex. *)
  let res = Foremost.run net s in
  let counts = Array.make n 0 in
  counts.(s) <- 1;
  let arrivals = Foremost.arrival_array res in
  for id = 0 to node_count - 1 do
    let v, time = Expanded.node expanded id in
    if v <> s && time = arrivals.(v) && time > 0 then counts.(v) <- ways.(id)
  done;
  counts

