type result = {
  source : int;
  delta : int;
  start_time : int;
  arrivals : int array array;  (* per vertex: sorted distinct arrivals *)
  preds : (int * int) array array;
      (* per vertex, parallel to arrivals: (predecessor vertex, the
         predecessor's arrival used), or (-1, -1) for a fresh launch
         from the source *)
}

(* Growable sorted-append buffers, one per vertex, with parallel
   predecessor records. *)
module Buffer_ = struct
  type t = {
    mutable data : int array;
    mutable pred : (int * int) array;
    mutable size : int;
  }

  let create () = { data = Array.make 4 0; pred = Array.make 4 (-1, -1); size = 0 }

  let push b x pred =
    if b.size = Array.length b.data then begin
      let grown = Array.make (2 * b.size) 0 in
      Array.blit b.data 0 grown 0 b.size;
      b.data <- grown;
      let grown_pred = Array.make (2 * b.size) (-1, -1) in
      Array.blit b.pred 0 grown_pred 0 b.size;
      b.pred <- grown_pred
    end;
    b.data.(b.size) <- x;
    b.pred.(b.size) <- pred;
    b.size <- b.size + 1

  let last b = if b.size = 0 then min_int else b.data.(b.size - 1)

  (* Smallest element in [lo, hi], if any.  Sorted ascending. *)
  let find_in b ~lo ~hi =
    let l = ref 0 and r = ref b.size in
    while !l < !r do
      let mid = (!l + !r) / 2 in
      if b.data.(mid) < lo then l := mid + 1 else r := mid
    done;
    if !l < b.size && b.data.(!l) <= hi then Some b.data.(!l) else None

  let to_array b = Array.sub b.data 0 b.size
  let preds b = Array.sub b.pred 0 b.size
end

let run ?(start_time = 1) ~delta net s =
  if delta < 1 then invalid_arg "Restless.run: delta must be >= 1";
  if start_time < 1 then invalid_arg "Restless.run: start_time must be >= 1";
  let n = Tgraph.n net in
  if s < 0 || s >= n then invalid_arg "Restless.run: source out of range";
  let buffers = Array.init n (fun _ -> Buffer_.create ()) in
  (* Sweep in non-decreasing label order: every arrival strictly below
     the current label is already recorded, which is all the usability
     check consults (it needs arrivals in [l - delta, l - 1]). *)
  Tgraph.iter_time_edges net (fun ~src ~dst ~label ->
      let via_relay =
        Buffer_.find_in buffers.(src) ~lo:(label - delta) ~hi:(label - 1)
      in
      let pred =
        match via_relay with
        | Some arrival -> Some (src, arrival)
        | None -> if src = s && label >= start_time then Some (-1, -1) else None
      in
      match pred with
      | Some pred when Buffer_.last buffers.(dst) <> label ->
        Buffer_.push buffers.(dst) label pred
      | _ -> ());
  {
    source = s;
    delta;
    start_time;
    arrivals = Array.map Buffer_.to_array buffers;
    preds = Array.map Buffer_.preds buffers;
  }

let source r = r.source
let delta r = r.delta

let distance r v =
  if v = r.source then Some 0
  else if Array.length r.arrivals.(v) = 0 then None
  else Some r.arrivals.(v).(0)

let reachable_count r =
  let count = ref 1 in
  Array.iteri
    (fun v a -> if v <> r.source && Array.length a > 0 then incr count)
    r.arrivals;
  !count

(* Index of [x] in the sorted array, assuming presence. *)
let index_of arr x =
  let l = ref 0 and r = ref (Array.length arr) in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if arr.(mid) < x then l := mid + 1 else r := mid
  done;
  !l

let journey_to r v =
  if v = r.source then Some []
  else if Array.length r.arrivals.(v) = 0 then None
  else begin
    let rec walk v arrival acc =
      let i = index_of r.arrivals.(v) arrival in
      match r.preds.(v).(i) with
      | -1, -1 ->
        (* Launched straight from the source. *)
        { Journey.src = r.source; dst = v; label = arrival } :: acc
      | u, used ->
        walk u used ({ Journey.src = u; dst = v; label = arrival } :: acc)
    in
    Some (walk v r.arrivals.(v).(0) [])
  end

let is_restless r journey =
  let rec check = function
    | (a : Journey.step) :: (b :: _ as rest) ->
      b.label > a.label && b.label <= a.label + r.delta && check rest
    | _ -> true
  in
  check journey

let path_exists_exhaustive ~delta net ~s ~t =
  if delta < 1 then invalid_arg "Restless: delta must be >= 1";
  let n = Tgraph.n net in
  if n > 20 then invalid_arg "Restless.path_exists_exhaustive: network too large";
  if s < 0 || s >= n || t < 0 || t >= n then
    invalid_arg "Restless: endpoint out of range";
  if s = t then true
  else begin
    let found = ref false in
    let rec explore v time visited =
      if not !found then
        Tgraph.iter_crossings_out net v (fun e target ->
            if visited land (1 lsl target) = 0 then
              Tgraph.iter_edge_labels net e (fun label ->
                  let ok =
                    if v = s && time = 0 then label > 0
                    else label > time && label <= time + delta
                  in
                  if ok && not !found then
                    if target = t then found := true
                    else explore target label (visited lor (1 lsl target))))
    in
    explore s 0 (1 lsl s);
    !found
  end
