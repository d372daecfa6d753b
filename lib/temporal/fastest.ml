type result = {
  source : int;
  duration : int array;  (* max_int = unreachable *)
  best_start : int array;  (* departure-window start_time achieving it *)
}

let run net s =
  let n = Tgraph.n net in
  if s < 0 || s >= n then invalid_arg "Fastest.run: source out of range";
  let duration = Array.make n max_int in
  let best_start = Array.make n (-1) in
  duration.(s) <- 0;
  best_start.(s) <- 1;
  (* Candidate departures: distinct labels on arcs leaving s.  A journey
     departing at label l is found exactly by the foremost sweep with
     start_time = l, which can only report arrivals from journeys whose
     first label is >= l; subtracting l therefore never under-estimates,
     and the run at the optimal journey's own departure attains it. *)
  let departures =
    let acc = ref [] in
    Tgraph.iter_crossings_out net s (fun e _ ->
        Tgraph.iter_edge_labels net e (fun l -> acc := l :: !acc));
    List.sort_uniq compare !acc
  in
  List.iter
    (fun depart ->
      let arrival = Foremost.arrivals_borrowed ~start_time:depart net s in
      for v = 0 to n - 1 do
        if v <> s && arrival.(v) < max_int then begin
          let transit = arrival.(v) - depart in
          if transit < duration.(v) then begin
            duration.(v) <- transit;
            best_start.(v) <- depart
          end
        end
      done)
    departures;
  { source = s; duration; best_start }

let duration r v = if r.duration.(v) = max_int then None else Some r.duration.(v)

let window r v =
  if v = r.source || r.duration.(v) = max_int then None
  else Some (r.best_start.(v), r.best_start.(v) + r.duration.(v))

let max_duration r =
  let worst = ref 0 and complete = ref true in
  Array.iteri
    (fun v d ->
      if v <> r.source then
        if d = max_int then complete := false
        else if d > !worst then worst := d)
    r.duration;
  if !complete then Some !worst else None

let journey_to net r v =
  if v = r.source then Some []
  else if r.duration.(v) = max_int then None
  else begin
    let res = Foremost.run ~start_time:r.best_start.(v) net r.source in
    Foremost.journey_to net res v
  end
