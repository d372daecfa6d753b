type edge = { dst : int; mutable capacity : int; rev : int }
(* adjacency.(v) is a growable vector of edges; rev indexes the twin in
   adjacency.(dst). *)

type t = {
  n : int;
  adjacency : edge array ref array;  (* one growable vector per node *)
  sizes : int array;
  mutable handles : (int * int) list;  (* (node, index) per public edge *)
  mutable handle_count : int;
}

(* A tiny growable vector per node keeps the hot loops array-based. *)
let create n =
  if n < 0 then invalid_arg "Maxflow.create: negative node count";
  {
    n;
    adjacency = Array.init n (fun _ -> ref [||]);
    sizes = Array.make n 0;
    handles = [];
    handle_count = 0;
  }


let push t v edge =
  let vec = t.adjacency.(v) in
  let capacity = Array.length !vec in
  if t.sizes.(v) = capacity then begin
    let grown =
      Array.make (Stdlib.max 4 (2 * capacity)) { dst = 0; capacity = 0; rev = 0 }
    in
    Array.blit !vec 0 grown 0 capacity;
    vec := grown
  end;
  !vec.(t.sizes.(v)) <- edge;
  t.sizes.(v) <- t.sizes.(v) + 1;
  t.sizes.(v) - 1

let add_edge t ~src ~dst ~capacity =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: endpoint out of range";
  if capacity < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  let forward_index = t.sizes.(src) in
  let backward_index = if src = dst then t.sizes.(dst) + 1 else t.sizes.(dst) in
  ignore (push t src { dst; capacity; rev = backward_index });
  ignore (push t dst { dst = src; capacity = 0; rev = forward_index });
  let handle = t.handle_count in
  t.handle_count <- handle + 1;
  t.handles <- (src, forward_index) :: t.handles;
  handle

let edge_at t v i = !(t.adjacency.(v)).(i)

(* Dinic: BFS level graph + DFS blocking flows. *)
let max_flow t ~source ~sink =
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n then
    invalid_arg "Maxflow.max_flow: endpoint out of range";
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  let level = Array.make t.n (-1) in
  let iter = Array.make t.n 0 in
  let queue = Queue.create () in
  let bfs () =
    Array.fill level 0 t.n (-1);
    Queue.clear queue;
    level.(source) <- 0;
    Queue.add source queue;
    while not (Queue.is_empty queue) do
      let v = Queue.take queue in
      for i = 0 to t.sizes.(v) - 1 do
        let e = edge_at t v i in
        if e.capacity > 0 && level.(e.dst) < 0 then begin
          level.(e.dst) <- level.(v) + 1;
          Queue.add e.dst queue
        end
      done
    done;
    level.(sink) >= 0
  in
  let rec dfs v limit =
    if v = sink then limit
    else begin
      let pushed = ref 0 in
      while !pushed = 0 && iter.(v) < t.sizes.(v) do
        let e = edge_at t v iter.(v) in
        if e.capacity > 0 && level.(e.dst) = level.(v) + 1 then begin
          let sub = dfs e.dst (Stdlib.min limit e.capacity) in
          if sub > 0 then begin
            e.capacity <- e.capacity - sub;
            let twin = edge_at t e.dst e.rev in
            twin.capacity <-
              (if twin.capacity > max_int - sub then max_int
               else twin.capacity + sub);
            pushed := sub
          end
          else iter.(v) <- iter.(v) + 1
        end
        else iter.(v) <- iter.(v) + 1
      done;
      !pushed
    end
  in
  let total = ref 0 in
  while bfs () do
    Array.fill iter 0 t.n 0;
    let continue = ref true in
    while !continue do
      let pushed = dfs source max_int in
      if pushed = 0 then continue := false
      else total := (if !total > max_int - pushed then max_int else !total + pushed)
    done
  done;
  !total

let flow_on t handle =
  let handles = Array.of_list (List.rev t.handles) in
  if handle < 0 || handle >= Array.length handles then
    invalid_arg "Maxflow.flow_on: bad handle";
  let v, i = handles.(handle) in
  let e = edge_at t v i in
  (* Flow = residual capacity of the twin (what was pushed forward). *)
  (edge_at t e.dst e.rev).capacity

let min_cut_side t ~source =
  let side = Array.make t.n false in
  let queue = Queue.create () in
  side.(source) <- true;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    for i = 0 to t.sizes.(v) - 1 do
      let e = edge_at t v i in
      if e.capacity > 0 && not side.(e.dst) then begin
        side.(e.dst) <- true;
        Queue.add e.dst queue
      end
    done
  done;
  side
