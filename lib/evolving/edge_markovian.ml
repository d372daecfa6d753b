module Rng = Prng.Rng

type t = {
  n : int;
  p_up : float;
  p_down : float;
  rng : Rng.t;
  present : bool array;  (* indexed by upper-triangular pair index *)
  mutable present_count : int;
}

let pair_index n u v =
  let u, v = if u < v then (u, v) else (v, u) in
  (* Offset of row u plus column within the row. *)
  (u * (n - 1)) - (u * (u - 1) / 2) + (v - u - 1)

let stationary p_up p_down = p_up /. (p_up +. p_down)

let create ?initial_density rng ~n ~p_up ~p_down =
  if n < 1 then invalid_arg "Edge_markovian.create: need n >= 1";
  let proba name p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg ("Edge_markovian.create: " ^ name ^ " not in [0,1]")
  in
  proba "p_up" p_up;
  proba "p_down" p_down;
  if p_up +. p_down <= 0. then
    invalid_arg "Edge_markovian.create: p_up + p_down must be positive";
  let density = Option.value initial_density ~default:(stationary p_up p_down) in
  proba "initial_density" density;
  let total = n * (n - 1) / 2 in
  let present = Array.init total (fun _ -> Rng.bernoulli rng density) in
  let present_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 present in
  { n; p_up; p_down; rng; present; present_count }

let n t = t.n

let density t =
  if t.n < 2 then 0.
  else float_of_int t.present_count /. float_of_int (Array.length t.present)

let stationary_density t = stationary t.p_up t.p_down

let step t =
  for i = 0 to Array.length t.present - 1 do
    if t.present.(i) then begin
      if Rng.bernoulli t.rng t.p_down then begin
        t.present.(i) <- false;
        t.present_count <- t.present_count - 1
      end
    end
    else if Rng.bernoulli t.rng t.p_up then begin
      t.present.(i) <- true;
      t.present_count <- t.present_count + 1
    end
  done

type flood = { completed : bool; rounds : int; informed : int }

let default_cap t =
  let log_n = Float.log2 (float_of_int (Stdlib.max 2 t.n)) in
  let effective =
    Float.max (stationary_density t) (1. /. float_of_int (Stdlib.max 2 t.n))
  in
  Stdlib.max 32 (int_of_float (8. *. (log_n +. 2.) /. effective))

let flood ?max_rounds t ~source =
  if source < 0 || source >= t.n then
    invalid_arg "Edge_markovian.flood: source out of range";
  let cap = Option.value max_rounds ~default:(default_cap t) in
  let informed = Array.make t.n false in
  informed.(source) <- true;
  let informed_count = ref 1 in
  let rounds = ref 0 in
  while !informed_count < t.n && !rounds < cap do
    step t;
    incr rounds;
    (* New informations this round; simultaneous, so collect first. *)
    let fresh = ref [] in
    for u = 0 to t.n - 2 do
      for v = u + 1 to t.n - 1 do
        if informed.(u) <> informed.(v) && t.present.(pair_index t.n u v)
        then fresh := (if informed.(u) then v else u) :: !fresh
      done
    done;
    List.iter
      (fun v ->
        if not informed.(v) then begin
          informed.(v) <- true;
          incr informed_count
        end)
      !fresh
  done;
  { completed = !informed_count = t.n; rounds = !rounds; informed = !informed_count }
