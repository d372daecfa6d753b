type step = {
  removed : int;
  survivors : int;
  reachable_pairs : int;
  reachability : float;
  diameter : int option;
}

type target = [ `Degree | `Closeness | `Betweenness ]

let measure net victim_original =
  let survivors = Tgraph.n net in
  let reachable = Reachability.reachable_pair_count net in
  let possible = survivors * (survivors - 1) in
  {
    removed = victim_original;
    survivors;
    reachable_pairs = reachable;
    reachability =
      (if possible = 0 then 1. else float_of_int reachable /. float_of_int possible);
    diameter = Distance.instance_diameter net;
  }

let attack ~pick net ~steps =
  if steps < 0 then invalid_arg "Robustness: steps must be >= 0";
  let rec go net mapping steps acc =
    if steps = 0 || Tgraph.n net <= 2 then List.rev acc
    else begin
      let victim = pick net in
      let keep =
        List.filter (fun v -> v <> victim) (List.init (Tgraph.n net) Fun.id)
      in
      let residual, old_of_new = Ops.induced net keep in
      let original = mapping.(victim) in
      let mapping = Array.map (fun v -> mapping.(v)) old_of_new in
      go residual mapping (steps - 1) (measure residual original :: acc)
    end
  in
  go net (Array.init (Tgraph.n net) Fun.id) steps []

let top_of scores =
  let best = ref 0 in
  Array.iteri (fun v s -> if s > scores.(!best) then best := v) scores;
  !best

let targeted_attack net ~by ~steps =
  let pick net =
    match by with
    | `Degree ->
      top_of
        (Array.init (Tgraph.n net) (fun v ->
             float_of_int (Sgraph.Graph.out_degree (Tgraph.graph net) v)))
    | `Closeness -> top_of (Centrality.out_closeness net)
    | `Betweenness -> top_of (Centrality.betweenness net)
  in
  attack ~pick net ~steps

let random_failures rng net ~steps =
  attack ~pick:(fun net -> Prng.Rng.int rng (Tgraph.n net)) net ~steps
