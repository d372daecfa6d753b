module Traverse = Sgraph.Traverse

let temporally_reachable net u v =
  Foremost.distance (Foremost.run net u) v <> None

(* The per-source scans borrow both workspace families at once — static
   BFS into [dist]/[queue], the batched sweep into the [lane_*] slots —
   which the Workspace slot discipline explicitly permits. *)
let static_into net u ws =
  Traverse.bfs_into (Tgraph.graph net) u ~dist:ws.Workspace.dist
    ~queue:ws.Workspace.queue

(* A fully saturated batch (every lane reached every vertex — the
   common case on instances that do satisfy Treach) passes with no
   static BFS at all.  Only unsaturated lanes pay a BFS plus a
   bit-probe scan. *)
let batch_ok net t =
  let n = Tgraph.n net in
  Batch.all_saturated t
  ||
  let ws = Workspace.get ~n in
  let rec lane_ok lane =
    lane >= Batch.lanes t
    || begin
         (Batch.saturated t ~lane
         ||
         begin
           static_into net (Batch.source t lane) ws;
           let static = ws.Workspace.dist in
           let bit = 1 lsl lane in
           let rec scan v =
             v >= n
             || ((static.(v) = Traverse.unreachable
                 || Batch.reached_word t v land bit <> 0)
                && scan (v + 1))
           in
           scan 0
         end)
         && lane_ok (lane + 1)
       end
  in
  lane_ok 0

(* Every consumer below reads reached bits or per-lane counts only, so
   they run on [Batch.sweep_reach]: no arrival matrix, O(n) words of
   scratch on either backend.  Treach takes batches sequentially, so
   the first failing batch ends the check. *)
let treach net =
  let n = Tgraph.n net in
  let batches = Batch.batch_count ~n in
  let rec scan b =
    b >= batches
    || (batch_ok net (Batch.sweep_reach net ~sources:(Batch.batch_sources ~n b))
       && scan (b + 1))
  in
  scan 0

(* Forward batch/lane/target order with a final reverse gives ascending
   (u, v) output order. *)
let missing_pairs net =
  let n = Tgraph.n net in
  let missing = ref [] in
  for b = 0 to Batch.batch_count ~n - 1 do
    let t = Batch.sweep_reach net ~sources:(Batch.batch_sources ~n b) in
    if not (Batch.all_saturated t) then begin
      let ws = Workspace.get ~n in
      for lane = 0 to Batch.lanes t - 1 do
        if not (Batch.saturated t ~lane) then begin
          let u = Batch.source t lane in
          static_into net u ws;
          let static = ws.Workspace.dist in
          let bit = 1 lsl lane in
          for v = 0 to n - 1 do
            if
              v <> u
              && static.(v) <> Traverse.unreachable
              && Batch.reached_word t v land bit = 0
            then missing := (u, v) :: !missing
          done
        end
      done
    end
  done;
  List.rev !missing

let count_pairs net ~temporal =
  let n = Tgraph.n net in
  if temporal then
    (* A batch costs O(lanes) to read out off the per-lane reached
       counts (source included); batches fanned over the pool. *)
    Array.fold_left ( + ) 0
      (Exec.Pool.map_range (Exec.Pool.global ()) ~lo:0 ~hi:(Batch.batch_count ~n)
         (fun b ->
           let t = Batch.sweep_reach net ~sources:(Batch.batch_sources ~n b) in
           let c = ref 0 in
           for lane = 0 to Batch.lanes t - 1 do
             c := !c + Batch.reached_count t ~lane - 1
           done;
           !c))
  else begin
    let ws = Workspace.get ~n in
    let count = ref 0 in
    for u = 0 to n - 1 do
      static_into net u ws;
      let static = ws.Workspace.dist in
      for v = 0 to n - 1 do
        if v <> u && static.(v) <> Traverse.unreachable then incr count
      done
    done;
    !count
  end

let reachable_pair_count net = count_pairs net ~temporal:true
let static_reachable_pair_count net = count_pairs net ~temporal:false

let reachability_ratio net =
  let static = static_reachable_pair_count net in
  if static = 0 then 1.
  else float_of_int (reachable_pair_count net) /. float_of_int static
