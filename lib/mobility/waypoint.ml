module Rng = Prng.Rng

type t = {
  rng : Rng.t;
  size : int;
  xs : int array;
  ys : int array;
  wx : int array;  (* waypoints *)
  wy : int array;
  mutable tick : int;
}

let create rng ~agents ~size =
  if agents < 1 then invalid_arg "Waypoint.create: need agents >= 1";
  if size < 2 then invalid_arg "Waypoint.create: need size >= 2";
  let cell () = Rng.int rng size in
  {
    rng;
    size;
    xs = Array.init agents (fun _ -> cell ());
    ys = Array.init agents (fun _ -> cell ());
    wx = Array.init agents (fun _ -> cell ());
    wy = Array.init agents (fun _ -> cell ());
    tick = 0;
  }

let agents t = Array.length t.xs
let size t = t.size
let positions t = Array.init (agents t) (fun i -> (t.xs.(i), t.ys.(i)))

(* One torus step of coordinate [c] towards [target]: move along the
   shorter wrap-around direction; ties resolve to the +1 direction. *)
let step_towards size c target =
  if c = target then c
  else begin
    let forward = (target - c + size) mod size in
    let backward = (c - target + size) mod size in
    if forward <= backward then (c + 1) mod size else (c - 1 + size) mod size
  end

let step t =
  t.tick <- t.tick + 1;
  for i = 0 to agents t - 1 do
    t.xs.(i) <- step_towards t.size t.xs.(i) t.wx.(i);
    t.ys.(i) <- step_towards t.size t.ys.(i) t.wy.(i);
    if t.xs.(i) = t.wx.(i) && t.ys.(i) = t.wy.(i) then begin
      t.wx.(i) <- Rng.int t.rng t.size;
      t.wy.(i) <- Rng.int t.rng t.size
    end
  done

type contact = { a : int; b : int; time : int }

let contacts_now t =
  (* Bucket agents by cell; emit all intra-cell pairs. *)
  let buckets = Hashtbl.create (agents t) in
  for i = 0 to agents t - 1 do
    let key = (t.xs.(i), t.ys.(i)) in
    Hashtbl.replace buckets key
      (i :: (Option.value (Hashtbl.find_opt buckets key) ~default:[]))
  done;
  Hashtbl.fold
    (fun _ members acc ->
      let rec pairs acc = function
        | [] -> acc
        | x :: rest ->
          pairs
            (List.fold_left
               (fun acc y ->
                 { a = Stdlib.min x y; b = Stdlib.max x y; time = t.tick }
                 :: acc)
               acc rest)
            rest
      in
      pairs acc members)
    buckets []

let run t ~ticks =
  if ticks < 0 then invalid_arg "Waypoint.run: ticks must be >= 0";
  let log = ref [] in
  for _ = 1 to ticks do
    step t;
    log := List.rev_append (contacts_now t) !log
  done;
  List.sort
    (fun c1 c2 -> compare (c1.time, c1.a, c1.b) (c2.time, c2.a, c2.b))
    !log
