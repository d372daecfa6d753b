type level = {
  arrival : int array;  (* arr_k(v): earliest arrival using <= k edges *)
  pred : (int * int) array;  (* (predecessor, label) realising arr_k(v) *)
}

type result = {
  source : int;
  start_time : int;
  hops : int array;  (* -1 = unreachable *)
  at_hops : int array;  (* earliest arrival using exactly hops.(v) edges *)
  levels : level array;  (* levels.(k) = state after k relaxation rounds *)
}

let run ?(start_time = 1) net s =
  if start_time < 1 then invalid_arg "Shortest.run: start_time must be >= 1";
  let n = Tgraph.n net in
  if s < 0 || s >= n then invalid_arg "Shortest.run: source out of range";
  let hops = Array.make n (-1) in
  let at_hops = Array.make n max_int in
  hops.(s) <- 0;
  at_hops.(s) <- start_time - 1;
  let level0 = Array.make n max_int in
  level0.(s) <- start_time - 1;
  let levels = ref [ { arrival = level0; pred = Array.make n (-1, -1) } ] in
  (* Bellman-Ford-like rounds: round k relaxes every arc against the
     arrivals of round k-1, so levels.(k) holds arr_k exactly.  At most
     n-1 rounds suffice: a minimal-hop (and a foremost) journey can
     always be made simple — cutting a loop keeps labels increasing. *)
  let changed = ref true in
  let k = ref 0 in
  while !changed do
    changed := false;
    incr k;
    let prev = (List.hd !levels).arrival in
    let arrival = Array.copy prev in
    let pred = Array.make n (-1, -1) in
    for v = 0 to n - 1 do
      if prev.(v) < max_int then
        Tgraph.iter_crossings_out net v (fun e target ->
            let label = Tgraph.edge_next_label_after net e prev.(v) in
            if label < arrival.(target) then begin
              arrival.(target) <- label;
              pred.(target) <- (v, label);
              if hops.(target) = -1 then hops.(target) <- !k;
              if hops.(target) = !k then at_hops.(target) <- label;
              changed := true
            end)
    done;
    if !changed then levels := { arrival; pred } :: !levels
  done;
  {
    source = s;
    start_time;
    hops;
    at_hops;
    levels = Array.of_list (List.rev !levels);
  }

let hops r v = if r.hops.(v) < 0 then None else Some r.hops.(v)

let arrival_at_best_hops r v =
  if r.hops.(v) < 0 then None
  else if v = r.source then Some 0
  else Some r.at_hops.(v)

let max_hops r =
  let worst = ref 0 and complete = ref true in
  Array.iter
    (fun h -> if h < 0 then complete := false else if h > !worst then worst := h)
    r.hops;
  if !complete then Some !worst else None

let pareto r v =
  if v = r.source then [ (0, 0) ]
  else if r.hops.(v) < 0 then []
  else begin
    (* levels.(k).arrival.(v) = arr_k(v); collect the staircase of
       strict improvements starting at the minimal hop count. *)
    let points = ref [] in
    let last_arrival = ref max_int in
    Array.iteri
      (fun k level ->
        if k >= r.hops.(v) && level.arrival.(v) < !last_arrival then begin
          last_arrival := level.arrival.(v);
          points := (k, level.arrival.(v)) :: !points
        end)
      r.levels;
    List.rev !points
  end

let journey_to _net r v =
  if v = r.source then Some []
  else if r.hops.(v) < 0 then None
  else begin
    (* Walk predecessor links down the levels: at level k the stored
       (u, label) satisfies arr_{k-1}(u) < label, so the suffix recursion
       from (u, k-1) arrives strictly before this step departs — the
       assembled labels are strictly increasing by construction. *)
    let rec walk v k acc =
      if v = r.source && r.levels.(k).arrival.(v) = r.start_time - 1 then acc
      else begin
        (* Find the level at which v's current arrival was set: descend
           while the previous level already had the same arrival. *)
        let rec settle k =
          if k > 0 && r.levels.(k - 1).arrival.(v) = r.levels.(k).arrival.(v)
          then settle (k - 1)
          else k
        in
        let k = settle k in
        let u, label = r.levels.(k).pred.(v) in
        walk u (k - 1) ({ Journey.src = u; dst = v; label } :: acc)
      end
    in
    let start_level = Stdlib.min r.hops.(v) (Array.length r.levels - 1) in
    Some (walk v start_level [])
  end
