let distance net u v =
  let res = Foremost.run net u in
  Foremost.distance res v

(* Eccentricity over borrowed workspace arrivals: max over v <> s, None
   if any vertex is unreached.  Zero allocation per source. *)
let ecc_borrowed net s =
  let n = Tgraph.n net in
  let arrival = Foremost.arrivals_borrowed net s in
  let worst = ref 0 and complete = ref true in
  for v = 0 to n - 1 do
    if v <> s then begin
      let a = arrival.(v) in
      if a = max_int then complete := false
      else if a > !worst then worst := a
    end
  done;
  if !complete then Some !worst else None

let eccentricity net s = ecc_borrowed net s

(* The per-source path, kept as the reference implementation: the bench
   measures the batched kernel against it and the batch suite pins the
   two bit-for-bit. *)
let instance_diameter_scalar net =
  let n = Tgraph.n net in
  let rec scan worst s =
    if s >= n then Some worst
    else
      match ecc_borrowed net s with
      | None -> None
      | Some e -> scan (Stdlib.max worst e) (s + 1)
  in
  scan 0 0

(* One eccentricity-only sweep per lane_width sources, fanned over the
   domain pool; the sequential fold keeps the max in batch order (and
   hence byte-identical output at any --jobs). *)
let instance_diameter net =
  let n = Tgraph.n net in
  let per_batch =
    Exec.Pool.map_range (Exec.Pool.global ()) ~lo:0 ~hi:(Batch.batch_count ~n)
      (fun b -> Batch.sweep_diameter net ~sources:(Batch.batch_sources ~n b))
  in
  Array.fold_left
    (fun acc w ->
      match (acc, w) with
      | Some a, Some b -> Some (Stdlib.max a b)
      | _ -> None)
    (Some 0) per_batch

(* All sampled sources ride one sweep per lane_width of them —
   sequentially, because this runs inside per-trial pool tasks. *)
let instance_diameter_sampled rng net ~sources =
  let n = Tgraph.n net in
  let k = Stdlib.min sources n in
  let picks = Prng.Sample.choose_distinct rng ~k ~n in
  let worst = ref (Some 0) in
  let off = ref 0 in
  while !worst <> None && !off < k do
    let width = Stdlib.min Batch.lane_width (k - !off) in
    let w = Batch.sweep_diameter net ~sources:(Array.sub picks !off width) in
    (match (!worst, w) with
    | Some a, Some b -> worst := Some (Stdlib.max a b)
    | _ -> worst := None);
    off := !off + width
  done;
  !worst

(* The all-pairs matrix and the average read full arrival rows, off
   [Batch.map_batches]'s arrival-lane slices. *)
let all_pairs net =
  let n = Tgraph.n net in
  let rows =
    Batch.map_batches net (fun t ->
        Array.init (Batch.lanes t) (fun lane ->
            let row = Array.make n 0 in
            Batch.arrivals_into t ~lane row;
            row.(Batch.source t lane) <- 0;
            row))
  in
  Array.concat (Array.to_list rows)

(* Integer partial sums per batch commute exactly, so pooled batches
   reproduce the per-source totals to the last bit. *)
let average net =
  let n = Tgraph.n net in
  let per_batch =
    Batch.map_batches net (fun t ->
        let bt = ref 0 and bp = ref 0 in
        for lane = 0 to Batch.lanes t - 1 do
          let u = Batch.source t lane in
          for v = 0 to n - 1 do
            let a = Batch.arrival t ~lane v in
            if v <> u && a < max_int then begin
              bt := !bt + a;
              incr bp
            end
          done
        done;
        (!bt, !bp))
  in
  let total = ref 0 and pairs = ref 0 in
  Array.iter
    (fun (bt, bp) ->
      total := !total + bt;
      pairs := !pairs + bp)
    per_batch;
  if !pairs = 0 then Float.nan else float_of_int !total /. float_of_int !pairs
