type result = {
  source : int;
  arrival : int array;
  pred : int array;  (* index into the time-edge stream, or -1 *)
}

(* The flat kernel: one pass over the packed stream, one label group
   at a time from the departure horizon (no arc below [start_time] can
   relax anything).  [arrival] and [pred] are caller-provided (length
   >= n); only slots 0..n-1 are touched.  Unsafe accesses are fine —
   stream endpoints were validated at Tgraph construction and [i]
   ranges over a group of the view.

   Early exit: the stream is label-sorted and arrivals only ever
   decrease, so once every vertex is reached and the current label has
   passed the maximum arrival, no remaining entry can satisfy
   [label < arrival.(dst)] — the sweep is done.  The bound is computed
   once when the last vertex is reached (conservative: later
   improvements may lower the true maximum, which only delays the
   exit, never corrupts it).  On dense fast-spreading instances such
   as the normalized U-RTN clique this skips almost the entire
   stream.

   The pass scans {!Tgraph.stream_prefix}, not {!Tgraph.stream}: on
   label-set networks the prefix is the whole stream and the outer
   loop runs once; on single-label and implicit ones an exhausted
   prefix is extended and the scan resumes at the next label (prefixes
   are byte-stable), so the arcs visited — and hence every probe — are
   identical to what the whole stream would have produced.  The
   early-exit test stays per arc, so the sweep stops at the same index
   inside a group.  An extension is requested only while it can still
   matter: some vertex unreached, or the arrival bound strictly beyond
   what the prefix already covers. *)
(* Kernel probes, updated once per sweep after the hot loop (never
   inside it) and only while Obs.Control is on — the disabled path
   costs one atomic load per sweep. *)
let sweeps_c = Obs.Metrics.counter "kernel.sweeps"
let scanned_c = Obs.Metrics.counter "kernel.edges_scanned"
let early_c = Obs.Metrics.counter "kernel.early_exits"

let sweep net ~start_time ~s ~arrival ~pred =
  let n = Tgraph.n net in
  for v = 0 to n - 1 do
    Array.unsafe_set arrival v max_int;
    Array.unsafe_set pred v (-1)
  done;
  arrival.(s) <- start_time - 1;
  let unreached = ref (n - 1) in
  let bound = ref max_int in
  let shift = Implicit.Stream.arc_shift and mask = Implicit.Stream.arc_mask in
  let label = ref start_time in
  let i = ref 0 in
  let stopped = ref false in
  let finished = ref false in
  let exhausted = ref false in
  (* "scanned the complete stream to its end" — for probe parity *)
  while not !finished do
    let { Implicit.Stream.arcs; off; bound = prefix_bound; _ } =
      Tgraph.stream_prefix net
    in
    i := off.(Stdlib.min !label (prefix_bound + 1));
    while !label <= prefix_bound && not !stopped do
      let l = !label in
      let hi = Array.unsafe_get off (l + 1) in
      while !i < hi && (!unreached > 0 || l < !bound) do
        let a = Array.unsafe_get arcs !i in
        if Array.unsafe_get arrival (a lsr shift) < l then begin
          let dst = a land mask in
          if l < Array.unsafe_get arrival dst then begin
            if Array.unsafe_get arrival dst = max_int then begin
              decr unreached;
              if !unreached = 0 then begin
                (* Last vertex just reached: arrivals are now all finite. *)
                let worst = ref 0 in
                for v = 0 to n - 1 do
                  if Array.unsafe_get arrival v > !worst && v <> dst then
                    worst := Array.unsafe_get arrival v
                done;
                bound := Stdlib.max !worst l
              end
            end;
            Array.unsafe_set arrival dst l;
            Array.unsafe_set pred dst !i
          end
        end;
        incr i
      done;
      if !i < hi then stopped := true else incr label
    done;
    if !stopped then
      (* Early exit inside the prefix; later labels are larger still. *)
      finished := true
    else begin
      (* Entries beyond the prefix carry labels > prefix_bound, so they
         only matter while some vertex is unreached or the arrival
         bound still admits label prefix_bound + 1. *)
      let need_more = !unreached > 0 || !bound > prefix_bound + 1 in
      if need_more then begin
        if not (Tgraph.stream_extend net ~past:prefix_bound) then begin
          (* Extension refused: the stream is complete and we scanned
             it to its end. *)
          finished := true;
          exhausted := true
        end
      end
      else begin
        finished := true;
        (* Stopping at a prefix edge is exhaustion iff nothing follows
           in the whole stream: the historical [i = total] rule, exact
           for a dense network, whose stream length is known up front
           whether or not its arcs are all placed yet.  An implicit
           sweep that stops there counts as early: its length is
           unknown, and racing builders may have published a deeper
           view than this sweep consumed, so any rule reading the view
           here would be jobs-dependent — and the probe must stay
           byte-identical at any --jobs. *)
        exhausted :=
          (not (Tgraph.is_implicit net)) && !i = Tgraph.time_edge_count net
      end
    end
  done;
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr sweeps_c;
    Obs.Metrics.add scanned_c !i;
    if not !exhausted then Obs.Metrics.incr early_c
  end

let check_args ~start_time net s =
  if start_time < 1 then invalid_arg "Foremost.run: start_time must be >= 1";
  let n = Tgraph.n net in
  if s < 0 || s >= n then invalid_arg "Foremost.run: source out of range"

let run ?(start_time = 1) net s =
  check_args ~start_time net s;
  let n = Tgraph.n net in
  let arrival = Array.make n max_int in
  let pred = Array.make n (-1) in
  sweep net ~start_time ~s ~arrival ~pred;
  { source = s; arrival; pred }

let arrivals_borrowed ?(start_time = 1) net s =
  check_args ~start_time net s;
  let ws = Workspace.get ~n:(Tgraph.n net) in
  sweep net ~start_time ~s ~arrival:ws.arrival ~pred:ws.pred;
  ws.arrival

let distance r v =
  if v = r.source then Some 0
  else if r.arrival.(v) = max_int then None
  else Some r.arrival.(v)

let arrival_array r = Array.copy r.arrival

let reachable_count r =
  Array.fold_left (fun acc a -> if a < max_int then acc + 1 else acc) 0 r.arrival

let max_distance r =
  let worst = ref 0 and complete = ref true in
  Array.iteri
    (fun v a ->
      if v <> r.source then
        if a = max_int then complete := false
        else if a > !worst then worst := a)
    r.arrival;
  if !complete then Some !worst else None

let journey_to net r v =
  if v = r.source then Some []
  else if r.arrival.(v) = max_int then None
  else begin
    let rec walk v acc =
      if v = r.source then acc
      else
        let src, dst, label = Tgraph.time_edge net r.pred.(v) in
        walk src ({ Journey.src; dst; label } :: acc)
    in
    Some (walk v [])
  end

let brute_force_distance net ?(start_time = 1) s t =
  if s = t then Some 0
  else begin
    let best = ref max_int in
    (* DFS over label-respecting walks, pruned by the best arrival so far;
       exponential in the worst case — a reference oracle, not a tool. *)
    let rec explore v time =
      Tgraph.iter_crossings_out net v (fun e target ->
          Tgraph.iter_edge_labels net e (fun label ->
              if label > time && label < !best then
                if target = t then best := label else explore target label))
    in
    explore s (start_time - 1);
    if !best = max_int then None else Some !best
  end
