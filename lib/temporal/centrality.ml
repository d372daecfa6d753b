let normalise net totals =
  let n = Tgraph.n net in
  let scale = if n <= 1 then 1. else 1. /. float_of_int (n - 1) in
  Array.map (fun x -> x *. scale) totals

(* Per-lane harmonic total off the batched arrival matrix, target order
   ascending — the float-add order of a per-source row scan. *)
let harmonic_lane ~n t lane =
  let skip = Batch.source t lane in
  let total = ref 0. in
  for v = 0 to n - 1 do
    let a = Batch.arrival t ~lane v in
    if v <> skip && a > 0 && a < max_int then
      total := !total +. (1. /. float_of_int a)
  done;
  !total

let out_closeness net =
  let n = Tgraph.n net in
  normalise net
    (Array.concat
       (Array.to_list
          (Batch.map_batches net (fun t ->
               Array.init (Batch.lanes t) (harmonic_lane ~n t)))))

(* Sequential batches, lanes in source order: each totals slot sees the
   add sequence of a per-source u-loop, keeping the floats
   bit-identical to it. *)
let in_closeness net =
  let n = Tgraph.n net in
  let totals = Array.make n 0. in
  Batch.iter_batches net (fun t ->
      for lane = 0 to Batch.lanes t - 1 do
        let u = Batch.source t lane in
        for v = 0 to n - 1 do
          let a = Batch.arrival t ~lane v in
          if v <> u && a > 0 && a < max_int then
            totals.(v) <- totals.(v) +. (1. /. float_of_int a)
        done
      done);
  normalise net totals

let broadcast_time net =
  Array.init (Tgraph.n net) (fun u ->
      match (Flooding.run net u).completion_time with
      | Some t -> t
      | None -> max_int)

let best_broadcaster net =
  let times = broadcast_time net in
  let best = ref 0 in
  Array.iteri (fun v t -> if t < times.(!best) then best := v) times;
  (!best, times.(!best))

(* Counts need no arrivals: arrival-free sweeps over the pool. *)
let reach_counts net =
  let n = Tgraph.n net in
  Array.concat
    (Array.to_list
       (Exec.Pool.map_range (Exec.Pool.global ()) ~lo:0 ~hi:(Batch.batch_count ~n)
          (fun b ->
            let t = Batch.sweep_reach net ~sources:(Batch.batch_sources ~n b) in
            Array.init (Batch.lanes t) (fun lane -> Batch.reached_count t ~lane))))

let rank scores =
  let order = Array.init (Array.length scores) Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare scores.(b) scores.(a) with
      | 0 -> compare a b
      | c -> c)
    order;
  order

let betweenness net =
  let n = Tgraph.n net in
  let credit = Array.make n 0. in
  let pairs = ref 0 in
  for s = 0 to n - 1 do
    let res = Foremost.run net s in
    for t = 0 to n - 1 do
      if t <> s then
        match Foremost.journey_to net res t with
        | None | Some [] -> ()
        | Some journey ->
          incr pairs;
          List.iter
            (fun (step : Journey.step) ->
              if step.dst <> t then
                credit.(step.dst) <- credit.(step.dst) +. 1.)
            journey
    done
  done;
  if !pairs = 0 then credit
  else Array.map (fun c -> c /. float_of_int !pairs) credit

let cover_by_time net ~deadline =
  if deadline < 0 then invalid_arg "Centrality.cover_by_time: negative deadline";
  let n = Tgraph.n net in
  (* ball.(s) = vertices informed by flooding from s within the
     deadline. *)
  let ball =
    Array.init n (fun s ->
        let result = Flooding.run net s in
        Array.map (fun t -> t <= deadline) result.informed_time)
  in
  let covered = Array.make n false in
  let remaining = ref n in
  let sources = ref [] in
  while !remaining > 0 do
    (* Pick the source covering the most uncovered vertices; every
       vertex covers at least itself, so progress is guaranteed. *)
    let best = ref 0 and best_gain = ref (-1) in
    for s = 0 to n - 1 do
      let gain = ref 0 in
      for v = 0 to n - 1 do
        if ball.(s).(v) && not covered.(v) then incr gain
      done;
      if !gain > !best_gain then begin
        best := s;
        best_gain := !gain
      end
    done;
    sources := !best :: !sources;
    for v = 0 to n - 1 do
      if ball.(!best).(v) && not covered.(v) then begin
        covered.(v) <- true;
        decr remaining
      end
    done
  done;
  List.rev !sources

let broadcast_cover net = cover_by_time net ~deadline:(Tgraph.lifetime net)
