type arc =
  | Wait of { from_id : int; to_id : int }
  | Travel of { from_id : int; to_id : int; stream_index : int }

type t = {
  net : Tgraph.t;
  nodes : (int * int) array;  (* id -> (vertex, event time) *)
  ids : (int * int, int) Hashtbl.t;  (* (vertex, event time) -> id *)
  start : int array;  (* vertex -> id of its time-0 node *)
  events : int array array;  (* vertex -> sorted event times, head 0 *)
  arcs : arc array;
  out_adjacency : int array array;  (* node id -> arc indices *)
}

(* Largest event time of v that is strictly below [time]; exists because
   0 is always an event. *)
let previous_event events time =
  let lo = ref 0 and hi = ref (Array.length events - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if events.(mid) < time then lo := mid else hi := mid - 1
  done;
  events.(!lo)

let build net =
  let n = Tgraph.n net in
  (* Collect per-vertex arrival events. *)
  let event_sets = Array.make n [] in
  Tgraph.iter_time_edges net (fun ~src:_ ~dst ~label ->
      event_sets.(dst) <- label :: event_sets.(dst));
  let events =
    Array.map
      (fun labels -> Array.of_list (List.sort_uniq compare (0 :: labels)))
      event_sets
  in
  let nodes = ref [] and count = ref 0 in
  let ids = Hashtbl.create (4 * n) in
  Array.iteri
    (fun v vertex_events ->
      Array.iter
        (fun time ->
          Hashtbl.add ids (v, time) !count;
          nodes := (v, time) :: !nodes;
          incr count)
        vertex_events)
    events;
  let nodes = Array.of_list (List.rev !nodes) in
  let start = Array.map (fun (_ : int array) -> 0) events in
  Array.iteri (fun v _ -> start.(v) <- Hashtbl.find ids (v, 0)) events;
  (* Arcs: waits along each vertex's event chain, travels per stream
     entry. *)
  let arcs = ref [] in
  Array.iteri
    (fun v vertex_events ->
      for i = 0 to Array.length vertex_events - 2 do
        arcs :=
          Wait
            {
              from_id = Hashtbl.find ids (v, vertex_events.(i));
              to_id = Hashtbl.find ids (v, vertex_events.(i + 1));
            }
          :: !arcs
      done)
    events;
  let stream_index = ref (-1) in
  Tgraph.iter_time_edges net (fun ~src ~dst ~label ->
      incr stream_index;
      arcs :=
        Travel
          {
            from_id = Hashtbl.find ids (src, previous_event events.(src) label);
            to_id = Hashtbl.find ids (dst, label);
            stream_index = !stream_index;
          }
        :: !arcs);
  let arcs = Array.of_list (List.rev !arcs) in
  let out_count = Array.make (Array.length nodes) 0 in
  let arc_source = function
    | Wait { from_id; _ } | Travel { from_id; _ } -> from_id
  in
  Array.iter (fun arc -> let s = arc_source arc in out_count.(s) <- out_count.(s) + 1) arcs;
  let out_adjacency = Array.map (fun c -> Array.make c 0) out_count in
  let fill = Array.make (Array.length nodes) 0 in
  Array.iteri
    (fun i arc ->
      let s = arc_source arc in
      out_adjacency.(s).(fill.(s)) <- i;
      fill.(s) <- fill.(s) + 1)
    arcs;
  { net; nodes; ids; start; events; arcs; out_adjacency }

let node_count t = Array.length t.nodes
let node t id = t.nodes.(id)
let start_node t v = t.start.(v)
let arcs t = t.arcs
let arc_count t = Array.length t.arcs

let earliest_arrival t s =
  let n = Tgraph.n t.net in
  if s < 0 || s >= n then invalid_arg "Expanded.earliest_arrival: bad source";
  let visited = Array.make (node_count t) false in
  let queue = Queue.create () in
  visited.(t.start.(s)) <- true;
  Queue.add t.start.(s) queue;
  while not (Queue.is_empty queue) do
    let id = Queue.take queue in
    Array.iter
      (fun arc_index ->
        let to_id =
          match t.arcs.(arc_index) with
          | Wait { to_id; _ } | Travel { to_id; _ } -> to_id
        in
        if not visited.(to_id) then begin
          visited.(to_id) <- true;
          Queue.add to_id queue
        end)
      t.out_adjacency.(id)
  done;
  (* Only the source's time-0 node is ever visited (waits run forward
     and travel arcs land on labels >= 1), so the minimum visited event
     time per vertex is exactly its earliest arrival. *)
  let arrival = Array.make n max_int in
  Array.iteri
    (fun id (v, time) ->
      if visited.(id) && time < arrival.(v) then arrival.(v) <- time)
    t.nodes;
  arrival
