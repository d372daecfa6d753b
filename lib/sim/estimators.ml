module Graph = Sgraph.Graph
module Rng = Prng.Rng
open Temporal

(* Every estimator follows one shape: Runner.map produces a pure
   per-trial value on the pool, then a sequential fold over the ordered
   array rebuilds the aggregates in trial order.  Keeping the float
   adds in that fold (never on the workers) makes the numbers
   bit-identical to the old sequential loops at any job count. *)

type diameter_stats = {
  trials : int;
  summary : Stats.Summary.t;
  samples : float array;
  disconnected : int;
}

let diameter_stats_of ~trials per_trial =
  let summary = Stats.Summary.create () in
  (* Preallocate at the trial count and trim once: no cons cell and no
     List.rev pass per sample. *)
  let samples = Array.make trials 0. in
  let filled = ref 0 in
  let disconnected = ref 0 in
  Array.iter
    (function
      | Some d ->
        Stats.Summary.add_int summary d;
        samples.(!filled) <- float_of_int d;
        incr filled
      | None -> incr disconnected)
    per_trial;
  {
    trials;
    summary;
    samples = (if !filled = trials then samples else Array.sub samples 0 !filled);
    disconnected = !disconnected;
  }

(* At r = 1, uniform_single makes the same draws in the same edge
   order as uniform_multi, into two-byte label cells instead of m boxed
   singleton label sets (up to a = 65535; past it, the same sets);
   every kernel reads both alike. *)
let temporal_diameter rng g ~a ~r ~trials =
  diameter_stats_of ~trials
    (Runner.map rng ~trials (fun _ trial_rng ->
         let net =
           if r = 1 then Assignment.uniform_single trial_rng g ~a
           else Assignment.uniform_multi trial_rng g ~a ~r
         in
         Distance.instance_diameter net))

let clique_temporal_diameter rng ~n ~a ~trials =
  temporal_diameter rng (Sgraph.Gen.clique Directed n) ~a ~r:1 ~trials

(* Backend-dispatched clique estimator (e23): each trial draws ONE
   bits64 seed and realises the derived instance either lazily
   (Implicit) or as its materialized dense twin (Dense).  Both arms
   see label-identical instances — Tgraph.materialize re-evaluates
   the same site function — so the resulting stats are byte-equal
   across backends; only memory and time differ.  The topology is the
   O(1) arithmetic clique on both: the backend decides only how labels
   are stored.  [sample] switches the per-instance statistic from the
   exact all-pairs diameter to a max over that many random sources
   (used only for the XL row, where even ceil(n/W) full sweeps are too
   dear). *)
let derived_clique_diameter rng ~n ~sample ~trials =
  let dense = Backend.current () = Backend.Dense in
  let g = Sgraph.Gen.clique Directed n in
  diameter_stats_of ~trials
    (Runner.map rng ~trials (fun _ trial_rng ->
         let net = Assignment.uniform_single_implicit trial_rng g ~a:n in
         let net = if dense then Tgraph.materialize net else net in
         match sample with
         | None -> Distance.instance_diameter net
         | Some sources ->
           Distance.instance_diameter_sampled trial_rng net ~sources))

let flooding_time rng g ~a ~r ~trials =
  let per_trial =
    Runner.map rng ~trials (fun _ trial_rng ->
        let net = Assignment.uniform_multi trial_rng g ~a ~r in
        let source = Rng.int trial_rng (Graph.n g) in
        Flooding.broadcast_time net source)
  in
  let summary = Stats.Summary.create () in
  let incomplete = ref 0 in
  Array.iter
    (function
      | Some t -> Stats.Summary.add_int summary t
      | None -> incr incomplete)
    per_trial;
  (summary, !incomplete)

type expansion_stats = {
  attempts : int;
  success_rate : float;
  arrival : Stats.Summary.t;
  flooding_arrival : Stats.Summary.t;
  horizon : int;
}

(* Per (instance, pair): did the expansion succeed, its arrival time if
   so, and the foremost-flooding arrival for the same pair. *)
type pair_outcome = {
  po_success : bool;
  po_arrival : int option;
  po_flooding : int option;
}

let expansion rng ~n ~params ~instances ~pairs_per_instance =
  let g = Sgraph.Gen.clique Directed n in
  let per_instance =
    Runner.map rng ~trials:instances (fun _ trial_rng ->
        let net = Assignment.normalized_uniform trial_rng g in
        List.init pairs_per_instance (fun _ ->
            let s = Rng.int trial_rng n in
            let t = (s + 1 + Rng.int trial_rng (n - 1)) mod n in
            let outcome = Expansion.run net params ~s ~t in
            {
              po_success = outcome.Expansion.success;
              po_arrival = (if outcome.Expansion.success then outcome.Expansion.arrival else None);
              po_flooding = Foremost.distance (Foremost.run net s) t;
            }))
  in
  let attempts = ref 0 and successes = ref 0 in
  let arrival = Stats.Summary.create () in
  let flooding_arrival = Stats.Summary.create () in
  Array.iter
    (List.iter (fun po ->
         incr attempts;
         if po.po_success then begin
           incr successes;
           Option.iter (fun x -> Stats.Summary.add_int arrival x) po.po_arrival
         end;
         Option.iter (fun d -> Stats.Summary.add_int flooding_arrival d) po.po_flooding))
    per_instance;
  {
    attempts = !attempts;
    success_rate = float_of_int !successes /. float_of_int (Stdlib.max 1 !attempts);
    arrival;
    flooding_arrival;
    horizon = Expansion.horizon params;
  }

let gnp_connectivity rng ~n ~p ~trials =
  let hits =
    Runner.count rng ~trials (fun trial_rng ->
        Sgraph.Components.is_connected (Sgraph.Gen.gnp trial_rng ~n ~p))
  in
  float_of_int hits /. float_of_int trials
