(* Trial execution over the process-wide domain pool.

   [map] is the parallel primitive: it pre-splits one child stream per
   trial with Rng.split_n — drawing exactly the per-iteration splits
   the sequential loop would — hands the indexed trials to
   Exec.Pool, and returns results in trial order.  Because trial i's
   stream and result slot depend only on i, the gathered array is
   byte-identical at any job count, and identical to the sequential
   loop it replaced.  collect/summarize/count fold that ordered array
   in the calling domain, so even float accumulation (Welford in
   Stats.Summary) matches the sequential order exactly.

   When supervision is active (a non-default Supervise config or an
   armed Fault plan), each trial runs through [Supervise.run_trial]:
   result-typed, retried within bounds, every attempt on a copy of the
   trial's pristine stream.  The gather then either extracts values
   (all Ok — bit-identical to the unsupervised array), raises
   Supervise.Trial_failed, or — under keep-going — drops the failed
   slots, records the failures for Report/ci_widen, and returns the
   partial array in trial order.  The unsupervised path stays lean:
   no stream copies, no retry machinery, just an [Ok] wrapper per
   slot.

   When a Store.Checkpoint context is active (ephemeral run --resume),
   each top-level [map] call claims the next checkpoint slot: its
   trials are processed in chunks whose bounds depend only on
   [trials], each finished chunk is persisted, and chunks already on
   disk are loaded instead of recomputed.
   Loading is sound precisely because of the determinism contract
   above — a persisted value is bit-identical to what recomputation
   would produce.  Chunks containing failed trials are never saved
   (only clean values may be replayed into a later run); nested map
   calls (inside a pool task) never claim slots, so the slot sequence
   is the deterministic sequence of top-level calls.

   [foreach] stays sequential and unsupervised: its closures mutate
   caller state freely (shared summaries, accumulator refs), so a
   retry after a partial mutation would be unsound.  Heavy experiments
   use [map].

   When telemetry is on, every *executed* trial runs inside an Obs
   span named "trial" — nested under the experiment's span even when
   the trial executes on a pool worker (the pool forwards the caller's
   span context) — and bumps the "sim.trials" counter.  Trials loaded
   from a checkpoint are not executed and leave both untouched (that
   is what lets CI assert a resumed run did less work).  The disabled
   path adds no clock reads and no instrumentation allocation. *)

(* Run trials [lo, hi) into their slots of [results].  Each index
   writes a distinct slot, so the writes are domain-safe. *)
let exec_range pool rngs f ~lo ~hi (results : (_, Supervise.failure) result option array)
    =
  let supervised = Supervise.active () in
  let run i =
    if supervised then Supervise.run_trial ~trial:i rngs.(i) (f i)
    else Ok (f i rngs.(i))
  in
  let body =
    if not (Obs.Control.enabled ()) then fun i -> results.(i) <- Some (run i)
    else begin
      let trial_count = Obs.Metrics.counter "sim.trials" in
      fun i ->
        Obs.Span.with_span "trial" (fun () ->
            Obs.Metrics.incr trial_count;
            results.(i) <- Some (run i))
    end
  in
  Exec.Pool.iter_range pool ~lo ~hi body

(* Gather: all-Ok extracts in place; failures either abort (first
   failure in trial order, so the error is deterministic too) or, with
   keep-going, drop their slots and are recorded for the report. *)
let gather (results : ('a, Supervise.failure) result option array) =
  let fails = ref [] in
  Array.iter
    (function
      | Some (Ok _) -> ()
      | Some (Error f) -> fails := f :: !fails
      | None -> assert false)
    results;
  match List.rev !fails with
  | [] -> Array.map (function Some (Ok v) -> v | _ -> assert false) results
  | first :: _ as fails ->
    Supervise.note_failures fails;
    if (Supervise.current ()).keep_going then
      Array.to_seq results
      |> Seq.filter_map (function Some (Ok v) -> Some v | _ -> None)
      |> Array.of_seq
    else raise (Supervise.Trial_failed first)

let chunk_clean results ~lo ~hi =
  let clean = ref true in
  for i = lo to hi - 1 do
    match results.(i) with Some (Ok _) -> () | _ -> clean := false
  done;
  !clean

(* Only top-level calls claim a slot: nested maps (running inside a pool
   task) execute inline and are covered by their parent's chunk, and
   claiming here would desynchronize the call counter between job
   counts.  Without a slot the whole range is one chunk, neither loaded
   nor saved. *)
let map rng ~trials f =
  if trials <= 0 then [||]
  else begin
    let slot =
      if Exec.Pool.in_task () then None else Store.Checkpoint.next_slot ~trials
    in
    if Supervise.active () then Supervise.note_planned trials;
    let rngs = Prng.Rng.split_n rng trials in
    let pool = Exec.Pool.global () in
    let results = Array.make trials None in
    let chunk =
      match slot with
      | Some _ -> Store.Checkpoint.chunk_size ~trials
      | None -> trials
    in
    let lo = ref 0 in
    while !lo < trials do
      let clo = !lo in
      let chi = Stdlib.min trials (clo + chunk) in
      (match slot with
      | None -> exec_range pool rngs f ~lo:clo ~hi:chi results
      | Some slot -> (
        match Store.Checkpoint.load_chunk slot ~lo:clo ~hi:chi with
        | Some values when Array.length values = chi - clo ->
          Array.iteri (fun k v -> results.(clo + k) <- Some (Ok v)) values
        | Some _ | None ->
          exec_range pool rngs f ~lo:clo ~hi:chi results;
          (* Persist only clean chunks: a saved chunk is replayed as
             values into later runs, so failures must never enter it. *)
          if chunk_clean results ~lo:clo ~hi:chi then
            Store.Checkpoint.save_chunk slot ~lo:clo ~hi:chi
              (Array.init (chi - clo) (fun k ->
                   match results.(clo + k) with
                   | Some (Ok v) -> v
                   | _ -> assert false))));
      lo := chi
    done;
    gather results
  end

let foreach rng ~trials f =
  if not (Obs.Control.enabled ()) then
    for i = 0 to trials - 1 do
      f i (Prng.Rng.split rng)
    done
  else begin
    let trial_count = Obs.Metrics.counter "sim.trials" in
    for i = 0 to trials - 1 do
      let trial_rng = Prng.Rng.split rng in
      Obs.Span.with_span "trial" (fun () ->
          Obs.Metrics.incr trial_count;
          f i trial_rng)
    done
  end

let collect rng ~trials f = Array.to_list (map rng ~trials (fun _ trial_rng -> f trial_rng))

let summarize rng ~trials f =
  let values = map rng ~trials (fun _ trial_rng -> f trial_rng) in
  let summary = Stats.Summary.create () in
  Array.iter (Stats.Summary.add summary) values;
  summary

let count rng ~trials f =
  let hits = map rng ~trials (fun _ trial_rng -> f trial_rng) in
  Array.fold_left (fun acc hit -> if hit then acc + 1 else acc) 0 hits
