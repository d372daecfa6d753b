type result = {
  source : int;
  informed_time : int array;
  informed_count : int;
  completion_time : int option;
  transmissions : int;
}

(* Transmission counting consumes every stream entry, so the prefix is
   extended to the whole stream before the scan: on implicit networks
   flooding pays the O(total stream) memory the reachability kernels
   avoid.  That is inherent to the statistic (every label of every
   edge can carry a transmission), not an implementation choice. *)
let iter_stream_all net f =
  let shift = Implicit.Stream.arc_shift and mask = Implicit.Stream.arc_mask in
  let { Implicit.Stream.arcs; off; bound; _ } = Tgraph.stream_extend_all net in
  for l = 1 to bound do
    for i = Array.unsafe_get off l to Array.unsafe_get off (l + 1) - 1 do
      let a = Array.unsafe_get arcs i in
      f ~src:(a lsr shift) ~dst:(a land mask) ~label:l
    done
  done

let run ?(start_time = 1) net s =
  if start_time < 1 then invalid_arg "Flooding.run: start_time must be >= 1";
  let n = Tgraph.n net in
  if s < 0 || s >= n then invalid_arg "Flooding.run: source out of range";
  let informed_time = Array.make n max_int in
  informed_time.(s) <- start_time - 1;
  let transmissions = ref 0 in
  (* Sweeping the label-sorted stream reproduces the protocol exactly:
     an arc with label l carries the message iff its source was informed
     strictly before l, and stream order guarantees every informing event
     before time l has already been applied. *)
  iter_stream_all net (fun ~src ~dst ~label ->
      if informed_time.(src) < label then begin
        incr transmissions;
        if label < informed_time.(dst) then informed_time.(dst) <- label
      end);
  let informed_count = ref 0 and completion = ref 0 in
  Array.iter
    (fun t ->
      if t < max_int then begin
        incr informed_count;
        if t > !completion then completion := t
      end)
    informed_time;
  {
    source = s;
    informed_time;
    informed_count = !informed_count;
    completion_time = (if !informed_count = n then Some !completion else None);
    transmissions = !transmissions;
  }

(* Flooding's informed times obey the same relaxation as foremost
   arrivals, so completion time is just the max over the borrowed
   arrival array — no result record, no transmission counting. *)
let broadcast_time net s =
  let n = Tgraph.n net in
  if s < 0 || s >= n then invalid_arg "Flooding.run: source out of range";
  let arrival = Foremost.arrivals_borrowed net s in
  let completion = ref 0 and all = ref true in
  for v = 0 to n - 1 do
    let t = arrival.(v) in
    if t = max_int then all := false else if t > !completion then completion := t
  done;
  if !all then Some !completion else None

let run_budgeted ?(start_time = 1) ~k net s =
  if k < 0 then invalid_arg "Flooding.run_budgeted: k must be >= 0";
  if start_time < 1 then
    invalid_arg "Flooding.run_budgeted: start_time must be >= 1";
  let n = Tgraph.n net in
  if s < 0 || s >= n then invalid_arg "Flooding.run_budgeted: source out of range";
  let informed_time = Array.make n max_int in
  informed_time.(s) <- start_time - 1;
  let remaining = Array.make n k in
  let transmissions = ref 0 in
  (* Same sweep as [run]; a vertex simply stops forwarding once its
     budget is spent.  The stream order makes "earliest k opportunities"
     the ones consumed. *)
  iter_stream_all net (fun ~src ~dst ~label ->
      if informed_time.(src) < label && remaining.(src) > 0 then begin
        remaining.(src) <- remaining.(src) - 1;
        incr transmissions;
        if label < informed_time.(dst) then informed_time.(dst) <- label
      end);
  let informed_count = ref 0 and completion = ref 0 in
  Array.iter
    (fun t ->
      if t < max_int then begin
        incr informed_count;
        if t > !completion then completion := t
      end)
    informed_time;
  {
    source = s;
    informed_time;
    informed_count = !informed_count;
    completion_time = (if !informed_count = n then Some !completion else None);
    transmissions = !transmissions;
  }
