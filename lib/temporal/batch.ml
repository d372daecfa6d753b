(* Bit-parallel batched foremost sweeps: up to [lane_width] sources per
   pass, one bit lane each, over the same counting-sorted time-edge
   stream the scalar kernel walks.

   Layout.  Each vertex owns ONE machine word per batch: bit [j] of
   [reached.(v)] says "lane [j]'s source has a journey to [v] arriving
   strictly before the label group being processed".  A time edge
   (u, v, l) then advances all lanes at once:

     add = reached.(u) land (lnot reached.(v))

   Strict label increase along journeys is what makes the word trick
   sound, and it is enforced by *group-phased* processing: all entries
   of one label [l] are applied against the reached state frozen at the
   end of label [l - 1] ([reached]), accumulating their new bits into a
   separate [delta] plane; only when the group ends are the deltas
   committed (arrivals recorded at [l], [reached] updated).  An entry
   can therefore never chain with another entry of its own label — the
   same guarantee the scalar kernel gets from its [arrival.(u) < l]
   comparison — so within-label stream order cannot affect the result,
   and batch arrivals are bit-for-bit the scalar sweep's.

   Early exit.  A lane saturates when its reached count hits [n]; the
   label of the group that saturated it is recorded as the lane's
   eccentricity (the arrival of its last-reached vertex).  Arrivals
   only ever extend to *new* vertices — a committed arrival is final,
   because a later entry carries a later label — so once the popcount
   of the saturated-lane mask reaches the batch width there is nothing
   left for the stream to say and the sweep stops.  On the normalized
   clique this fires after O(log n) label groups, exactly like the
   scalar bound-based exit, but its cost is shared by all lanes.

   Probes (updated once per sweep, after the hot loop, only while
   Obs.Control is on): kernel.batch_sweeps, kernel.batch_edges_scanned
   and kernel.lane_saturations.  All three are functions of the
   instance and batch composition alone — never of scheduling — so run
   ledgers file them under the deterministic section. *)

let lane_width = Sys.int_size

(* Bit helpers on OCaml's native ints.  Masks with bit 62 set do not
   fit a 63-bit literal, so popcount splits into two halves narrow
   enough for 32-bit SWAR. *)

let pop32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* OCaml ints don't truncate the multiply at 32 bits, so mask the
     summed byte out explicitly (counts fit: <= 32 per half). *)
  ((x * 0x01010101) lsr 24) land 0xFF

let popcount x = pop32 (x land 0x7FFFFFFF) + pop32 ((x lsr 31) land 0xFFFFFFFF)

(* All [k] low bits set, valid for 1 <= k <= lane_width (1 lsl
   lane_width is unspecified, so the full word is spelled -1). *)
let full_mask k = if k >= lane_width then -1 else (1 lsl k) - 1

type t = {
  n : int;
  lanes : int;
  start_time : int;
  sources : int array;
  arrival : int array;
  reached : int array;
  reached_counts : int array;
  ecc : int array;
}

let sweeps_c = Obs.Metrics.counter "kernel.batch_sweeps"
let scanned_c = Obs.Metrics.counter "kernel.batch_edges_scanned"
let sat_c = Obs.Metrics.counter "kernel.lane_saturations"

let check_args name ~start_time ~n sources =
  if start_time < 1 then invalid_arg (name ^ ": start_time must be >= 1");
  let k = Array.length sources in
  if k < 1 || k > lane_width then
    invalid_arg (name ^ ": need 1 .. lane_width sources");
  Array.iter
    (fun s -> if s < 0 || s >= n then invalid_arg (name ^ ": source out of range"))
    sources

(* Phase 1 of one label group: apply the arcs [arcs.(lo .. hi - 1)]
   against the frozen pre-group [reached] plane, OR-ing the new bits
   into [delta] and stacking each vertex's first touch on [dirty].
   Returns the dirty count.  The shift and mask are bound here, once
   per group: nothing inlines across modules, so [Implicit.Stream]'s
   decoders would cost a call per arc. *)
let scan_group (arcs : int array) ~lo ~hi ~(reached : int array)
    ~(delta : int array) ~(dirty : int array) =
  let shift = Implicit.Stream.arc_shift and mask = Implicit.Stream.arc_mask in
  let ndirty = ref 0 in
  for i = lo to hi - 1 do
    let a = Array.unsafe_get arcs i in
    let g = Array.unsafe_get reached (a lsr shift) in
    if g <> 0 then begin
      let dst = a land mask in
      let d = Array.unsafe_get delta dst in
      let add = g land lnot (Array.unsafe_get reached dst lor d) in
      if add <> 0 then begin
        if d = 0 then begin
          Array.unsafe_set dirty !ndirty dst;
          incr ndirty
        end;
        Array.unsafe_set delta dst (d lor add)
      end
    end
  done;
  !ndirty

(* The scan probe: the stream index the walk stopped at, i.e. the start
   of the next label group it would have scanned, or the end of the
   last view it scanned. *)
let scan_stop (v : Implicit.Stream.view) next =
  v.off.(Stdlib.min next (v.bound + 1))

let sweep ?(start_time = 1) net ~sources =
  let n = Tgraph.n net in
  check_args "Batch.sweep" ~start_time ~n sources;
  let k = Array.length sources in
  let ws = Workspace.get_batch ~n ~lanes:k in
  let reached = ws.Workspace.lane_reached in
  let delta = ws.Workspace.lane_delta in
  let dirty = ws.Workspace.lane_dirty in
  let arrival = ws.Workspace.lane_arrival in
  let counts = ws.Workspace.lane_counts in
  let ecc = ws.Workspace.lane_ecc in
  Array.fill reached 0 n 0;
  Array.fill delta 0 n 0;
  Array.fill arrival 0 (n * k) max_int;
  Array.fill counts 0 k 0;
  Array.fill ecc 0 k max_int;
  let unsat = ref (full_mask k) in
  for lane = 0 to k - 1 do
    let s = Array.unsafe_get sources lane in
    reached.(s) <- reached.(s) lor (1 lsl lane);
    arrival.((s * k) + lane) <- start_time - 1;
    counts.(lane) <- counts.(lane) + 1;
    if counts.(lane) = n then begin
      (* Saturated at birth: n = 1.  Mirror the scalar eccentricity
         convention (max over an empty set of targets) of 0. *)
      ecc.(lane) <- 0;
      unsat := !unsat land lnot (1 lsl lane)
    end
  done;
  (* Scan the stream prefix one label group at a time, from the
     departure horizon: arcs below [start_time] can never start a
     journey.  On implicit networks an exhausted prefix is extended and
     the scan resumes at the next label (prefixes are byte-stable), so
     the arcs visited are exactly the dense stream's.  The label-bound
     cut can never split a label group — a prefix holds ALL arcs up to
     its bound — so the group-phased commit discipline is
     unaffected. *)
  let next = ref start_time in
  let view = ref (Tgraph.stream_prefix net) in
  let continue_ = ref true in
  while !continue_ do
    let { Implicit.Stream.arcs; off; bound; _ } = !view in
    while !next <= bound && !unsat <> 0 do
      let l = !next in
      let ndirty =
        scan_group arcs ~lo:(Array.unsafe_get off l)
          ~hi:(Array.unsafe_get off (l + 1)) ~reached ~delta ~dirty
      in
      (* Phase 2: commit the group — record arrivals at l, fold the
         deltas into the reached plane, retire saturated lanes. *)
      for j = 0 to ndirty - 1 do
        let v = Array.unsafe_get dirty j in
        let add = Array.unsafe_get delta v in
        Array.unsafe_set delta v 0;
        Array.unsafe_set reached v (Array.unsafe_get reached v lor add);
        (* Walk the word lane by lane instead of isolate-and-ntz per set
           bit: on dense groups (the common case on the clique, where one
           label delivers most lanes to a vertex at once) the shift walk
           is a handful of ops per arrival where ntz extraction costs
           ~15, and it still stops at the highest set bit when the word
           is sparse.  This loop writes every all-pairs arrival exactly
           once, so it is the sweep's real inner loop — the edge scan
           above touches ~W times fewer entries. *)
        let rem = ref add in
        let base = v * k in
        let lane = ref 0 in
        while !rem <> 0 do
          if !rem land 1 <> 0 then begin
            Array.unsafe_set arrival (base + !lane) l;
            let c = Array.unsafe_get counts !lane + 1 in
            Array.unsafe_set counts !lane c;
            if c = n then begin
              Array.unsafe_set ecc !lane l;
              unsat := !unsat land lnot (1 lsl !lane)
            end
          end;
          rem := !rem lsr 1;
          incr lane
        done
      done;
      incr next
    done;
    if !unsat = 0 || not (Tgraph.stream_extend net ~past:bound) then
      continue_ := false
    else view := Tgraph.stream_prefix net
  done;
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr sweeps_c;
    Obs.Metrics.add scanned_c (scan_stop !view !next);
    Obs.Metrics.add sat_c (popcount (full_mask k land lnot !unsat))
  end;
  {
    n;
    lanes = k;
    start_time;
    sources;
    arrival;
    reached;
    reached_counts = counts;
    ecc;
  }

let lanes t = t.lanes
let source t lane = t.sources.(lane)
let arrival t ~lane v = t.arrival.((v * t.lanes) + lane)
let reached_word t v = t.reached.(v)
let reached_count t ~lane = t.reached_counts.(lane)
let saturated t ~lane = t.reached_counts.(lane) = t.n

let all_saturated t =
  let rec scan lane =
    lane >= t.lanes || (t.reached_counts.(lane) = t.n && scan (lane + 1))
  in
  scan 0

let eccentricity t ~lane =
  let e = t.ecc.(lane) in
  if e = max_int then None else Some e

let arrivals_into t ~lane out =
  let k = t.lanes in
  for v = 0 to t.n - 1 do
    Array.unsafe_set out v (Array.unsafe_get t.arrival ((v * k) + lane))
  done

(* The arrival-free plane walk: the same group-phased walk as [sweep],
   but it never touches the arrival matrix.  It answers two questions —
   did every lane saturate, and what is the label of the last committed
   arrival — and the second IS the batch's worst eccentricity, because
   arrivals commit in strictly increasing label order, so the final new
   (vertex, lane) pair carries the maximum arrival.  That reduces the
   per-group commit to one popcount per dirty vertex against a single
   remaining-pairs counter: no n*k fill, no per-bit lane walk, no
   per-lane counts.  The walk's cost collapses to the edge scan, which
   is what makes exact all-pairs diameters cheap enough for E1b's
   n = 2048, and its scratch stays at O(n) words — what the implicit
   backend needs at n = 10^5+.  Returns [None] when some pair is
   unreached; the reached plane stays in the workspace for
   [sweep_reach] to read. *)
let plane_walk name ~start_time net ~sources =
  let n = Tgraph.n net in
  check_args name ~start_time ~n sources;
  let k = Array.length sources in
  let ws = Workspace.get_batch_planes ~n in
  let reached = ws.Workspace.lane_reached in
  let delta = ws.Workspace.lane_delta in
  let dirty = ws.Workspace.lane_dirty in
  Array.fill reached 0 n 0;
  Array.fill delta 0 n 0;
  (* Unreached (vertex, lane) pairs left; each lane's own source counts
     as reached from the start (even under duplicate sources the pairs
     are distinct, one per lane). *)
  let remaining = ref ((n * k) - k) in
  for lane = 0 to k - 1 do
    let s = Array.unsafe_get sources lane in
    reached.(s) <- reached.(s) lor (1 lsl lane)
  done;
  let worst = ref 0 in
  let next = ref start_time in
  let view = ref (Tgraph.stream_prefix net) in
  let continue_ = ref true in
  while !continue_ do
    let { Implicit.Stream.arcs; off; bound; _ } = !view in
    while !next <= bound && !remaining > 0 do
      let l = !next in
      let ndirty =
        scan_group arcs ~lo:(Array.unsafe_get off l)
          ~hi:(Array.unsafe_get off (l + 1)) ~reached ~delta ~dirty
      in
      if ndirty > 0 then begin
        (* Something committed at this label; if it turns out to be the
           last commit, [l] is the max arrival of the whole batch. *)
        worst := l;
        for j = 0 to ndirty - 1 do
          let v = Array.unsafe_get dirty j in
          let add = Array.unsafe_get delta v in
          Array.unsafe_set delta v 0;
          Array.unsafe_set reached v (Array.unsafe_get reached v lor add);
          remaining := !remaining - popcount add
        done
      end;
      incr next
    done;
    if !remaining = 0 || not (Tgraph.stream_extend net ~past:bound) then
      continue_ := false
    else view := Tgraph.stream_prefix net
  done;
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr sweeps_c;
    Obs.Metrics.add scanned_c (scan_stop !view !next);
    let sat =
      if !remaining = 0 then k
      else begin
        (* Lane j saturated iff bit j survives an AND over every
           vertex's word; only the incomplete path pays this O(n). *)
        let acc = ref (full_mask k) in
        for v = 0 to n - 1 do
          acc := !acc land Array.unsafe_get reached v
        done;
        popcount !acc
      end
    in
    Obs.Metrics.add sat_c sat
  end;
  if !remaining = 0 then Some !worst else None

let sweep_diameter ?(start_time = 1) net ~sources =
  plane_walk "Batch.sweep_diameter" ~start_time net ~sources

(* The plane walk plus one shift walk over the reached plane (O(n)
   words) that recovers the per-lane counts, so reachability consumers
   read [reached_word]/[reached_count]/[saturated] exactly as off a
   [sweep].  The result's [arrival] is empty: [arrival],
   [arrivals_into] and [eccentricity] are unsupported on it. *)
let sweep_reach ?(start_time = 1) net ~sources =
  ignore (plane_walk "Batch.sweep_reach" ~start_time net ~sources : int option);
  let n = Tgraph.n net and k = Array.length sources in
  let ws = Workspace.get_batch_planes ~n in
  let reached = ws.Workspace.lane_reached in
  let counts = ws.Workspace.lane_counts in
  Array.fill counts 0 k 0;
  Array.fill ws.Workspace.lane_ecc 0 k max_int;
  for v = 0 to n - 1 do
    let rem = ref (Array.unsafe_get reached v) in
    let lane = ref 0 in
    while !rem <> 0 do
      if !rem land 1 <> 0 then
        Array.unsafe_set counts !lane (Array.unsafe_get counts !lane + 1);
      rem := !rem lsr 1;
      incr lane
    done
  done;
  {
    n;
    lanes = k;
    start_time;
    sources;
    arrival = [||];
    reached;
    reached_counts = counts;
    ecc = ws.Workspace.lane_ecc;
  }

(* ------------------------------------------------------------------ *)
(* Batching sources 0 .. n-1: [lane_width]-wide batches for the plane
   kernels, [arrival_lanes]-wide slices for the arrival-matrix ones. *)

let slice_count ~width ~n = (n + width - 1) / width

let slice ~width ~n b =
  let lo = b * width in
  if lo < 0 || lo >= n then invalid_arg "Batch.batch_sources: batch out of range";
  Array.init (Stdlib.min width (n - lo)) (fun j -> lo + j)

let batch_count ~n = slice_count ~width:lane_width ~n
let batch_sources ~n b = slice ~width:lane_width ~n b

(* An n * lanes arrival matrix within a 2^20-word budget: full words
   up to n = 16 644, fewer lanes beyond, never fewer than one — so a
   matrix sweep's scratch is at most max(2^20, n) words on either
   backend. *)
let arrival_lanes ~n = Stdlib.max 1 (Stdlib.min lane_width ((1 lsl 20) / Stdlib.max 1 n))

let iter_batches ?start_time net f =
  let n = Tgraph.n net in
  let width = arrival_lanes ~n in
  for b = 0 to slice_count ~width ~n - 1 do
    f (sweep ?start_time net ~sources:(slice ~width ~n b))
  done

let map_batches ?start_time net f =
  let n = Tgraph.n net in
  let width = arrival_lanes ~n in
  Exec.Pool.map_range (Exec.Pool.global ()) ~lo:0 ~hi:(slice_count ~width ~n)
    (fun b -> f (sweep ?start_time net ~sources:(slice ~width ~n b)))
