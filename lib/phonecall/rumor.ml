module Graph = Sgraph.Graph
module Rng = Prng.Rng

type strategy = Push | Pull | Push_pull | Push_pull_memory of int

type result = {
  rounds : int option;
  transmissions : int;
  informed_per_round : int list;
}

let default_max_rounds n =
  64 + (8 * int_of_float (Float.ceil (Float.log2 (float_of_int (Stdlib.max 2 n)))))

let spread ?max_rounds rng g strategy ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Rumor.spread: bad source";
  let max_rounds = Option.value max_rounds ~default:(default_max_rounds n) in
  let informed = Array.make n false in
  informed.(source) <- true;
  let informed_count = ref 1 in
  let transmissions = ref 0 in
  let history = ref [ 1 ] in
  (* Hoisted: out_neighbors allocates, and pick_neighbor runs n times per
     round. *)
  let neighbors = Array.init n (Graph.out_neighbors g) in
  let memory_size =
    match strategy with Push_pull_memory k -> Stdlib.max 0 k | _ -> 0
  in
  (* Ring buffers of recent partners, only allocated when used. *)
  let memory = Array.make (if memory_size > 0 then n else 0) [||] in
  let memory_pos = Array.make (Array.length memory) 0 in
  if memory_size > 0 then
    for v = 0 to n - 1 do
      memory.(v) <- Array.make memory_size (-1)
    done;
  let remember v partner =
    if memory_size > 0 then begin
      memory.(v).(memory_pos.(v)) <- partner;
      memory_pos.(v) <- (memory_pos.(v) + 1) mod memory_size
    end
  in
  let remembered v partner =
    memory_size > 0 && Array.exists (( = ) partner) memory.(v)
  in
  let pick_neighbor v =
    let deg = Array.length neighbors.(v) in
    if deg = 0 then invalid_arg "Rumor.spread: vertex without neighbours";
    (* Avoid remembered partners when possible: bounded rejection, then
       fall back to uniform (correct when deg <= memory). *)
    let rec avoid attempts =
      let candidate = neighbors.(v).(Rng.int rng deg) in
      if attempts = 0 || not (remembered v candidate) then candidate
      else avoid (attempts - 1)
    in
    let partner = if memory_size = 0 then avoid 0 else avoid (4 * memory_size) in
    remember v partner;
    partner
  in
  let round = ref 0 in
  while !informed_count < n && !round < max_rounds do
    incr round;
    (* Calls resolve simultaneously: collect the newly informed first. *)
    let fresh = ref [] in
    for v = 0 to n - 1 do
      let callee = pick_neighbor v in
      let transmit target =
        incr transmissions;
        if not informed.(target) then fresh := target :: !fresh
      in
      (match strategy with
      | Push -> if informed.(v) then transmit callee
      | Pull -> if (not informed.(v)) && informed.(callee) then transmit v
      | Push_pull | Push_pull_memory _ ->
        if informed.(v) then transmit callee
        else if informed.(callee) then transmit v)
    done;
    List.iter
      (fun v ->
        if not informed.(v) then begin
          informed.(v) <- true;
          incr informed_count
        end)
      !fresh;
    history := !informed_count :: !history
  done;
  {
    rounds = (if !informed_count = n then Some !round else None);
    transmissions = !transmissions;
    informed_per_round = List.rev !history;
  }

let mean_rounds rng g strategy ~trials =
  let n = Graph.n g in
  let cap = default_max_rounds n in
  let summary = Stats.Summary.create () in
  for _ = 1 to trials do
    let source = Rng.int rng n in
    let result = spread rng g strategy ~source in
    Stats.Summary.add_int summary (Option.value result.rounds ~default:cap)
  done;
  (Stats.Summary.mean summary, Stats.Summary.stddev summary)
