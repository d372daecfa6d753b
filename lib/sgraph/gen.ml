(* The clique, star and grid are arithmetic shapes: O(1) memory, every
   adjacency query answered by arithmetic on n (or rows and cols).
   Their edge numbering is part of the output contract, since label
   draws go by edge id; [Graph]'s shape section states it. *)
let clique kind n =
  if n < 1 then invalid_arg "Gen.clique: need n >= 1";
  Graph.implicit_clique kind n

let clique_implicit = clique

let star n =
  if n < 2 then invalid_arg "Gen.star: need n >= 2";
  Graph.implicit_star n

let path n =
  if n < 1 then invalid_arg "Gen.path: need n >= 1";
  Graph.create Undirected ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need n >= 3";
  Graph.create Undirected ~n
    (List.init n (fun i -> (i, (i + 1) mod n)))

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid: empty grid";
  Graph.implicit_grid ~rows ~cols

let hypercube d =
  if d < 1 then invalid_arg "Gen.hypercube: need d >= 1";
  let n = 1 lsl d in
  (* Consed, so edge 0 is the last pair emitted; label draws go by edge
     id, so this order is part of the output. *)
  let edges = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then edges := (v, w) :: !edges
    done
  done;
  Graph.create Undirected ~n !edges

let binary_tree n =
  if n < 1 then invalid_arg "Gen.binary_tree: need n >= 1";
  Graph.create Undirected ~n
    (List.init (n - 1) (fun i ->
         let child = i + 1 in
         ((child - 1) / 2, child)))

let wheel n =
  if n < 4 then invalid_arg "Gen.wheel: need n >= 4";
  let rim = n - 1 in
  let spokes = List.init rim (fun i -> (0, i + 1)) in
  let ring = List.init rim (fun i -> (1 + i, 1 + ((i + 1) mod rim))) in
  Graph.create Undirected ~n (spokes @ ring)

let clique_edges offset k =
  let edges = ref [] in
  for u = 0 to k - 1 do
    for v = u + 1 to k - 1 do
      edges := (offset + u, offset + v) :: !edges
    done
  done;
  !edges

let barbell k =
  if k < 2 then invalid_arg "Gen.barbell: need k >= 2";
  let left = clique_edges 0 k and right = clique_edges k k in
  Graph.create Undirected ~n:(2 * k) (((k - 1, k) :: left) @ right)

let random_tree rng n =
  if n < 1 then invalid_arg "Gen.random_tree: need n >= 1";
  if n = 1 then Graph.create Undirected ~n []
  else if n = 2 then Graph.create Undirected ~n [ (0, 1) ]
  else begin
    (* Decode a uniform Prüfer sequence of length n-2. *)
    let pruefer = Array.init (n - 2) (fun _ -> Prng.Rng.int rng n) in
    let degree = Array.make n 1 in
    Array.iter (fun v -> degree.(v) <- degree.(v) + 1) pruefer;
    let module Leaves = Set.Make (Int) in
    let leaves = ref Leaves.empty in
    for v = 0 to n - 1 do
      if degree.(v) = 1 then leaves := Leaves.add v !leaves
    done;
    let edges = ref [] in
    Array.iter
      (fun v ->
        let leaf = Leaves.min_elt !leaves in
        leaves := Leaves.remove leaf !leaves;
        edges := (leaf, v) :: !edges;
        degree.(v) <- degree.(v) - 1;
        if degree.(v) = 1 then leaves := Leaves.add v !leaves)
      pruefer;
    let u = Leaves.min_elt !leaves in
    let v = Leaves.max_elt !leaves in
    Graph.create Undirected ~n ((u, v) :: !edges)
  end

(* Map a linear index over the strictly-upper-triangular pairs of [0..n). *)
let pair_of_index n idx =
  (* Find u: idx falls in u's block of (n-1-u) pairs. *)
  let rec find u base =
    let block = n - 1 - u in
    if idx < base + block then (u, u + 1 + (idx - base))
    else find (u + 1) (base + block)
  in
  find 0 0

let gnp rng ~n ~p =
  if n < 1 then invalid_arg "Gen.gnp: need n >= 1";
  if not (p >= 0. && p <= 1.) then invalid_arg "Gen.gnp: p not in [0,1]";
  let total = n * (n - 1) / 2 in
  let edges = ref [] in
  if p >= 1. then
    for idx = 0 to total - 1 do
      edges := pair_of_index n idx :: !edges
    done
  else if p > 0. then begin
    (* Geometric skipping (Batagelj–Brandes): jump straight between
       successive present edges. *)
    let log1mp = Float.log1p (-.p) in
    let idx = ref (-1) in
    let continue = ref true in
    while !continue do
      let u = 1. -. Prng.Rng.float rng in
      let skip = 1 + int_of_float (Float.log u /. log1mp) in
      idx := !idx + skip;
      if !idx >= total then continue := false
      else edges := pair_of_index n !idx :: !edges
    done
  end;
  Graph.create Undirected ~n !edges

let barabasi_albert rng ~n ~m =
  if m < 1 || m >= n then invalid_arg "Gen.barabasi_albert: need 1 <= m < n";
  (* Endpoint multiset: picking a uniform element of [targets] is
     degree-proportional selection. *)
  let targets = ref [] in
  let edges = ref (clique_edges 0 (m + 1)) in
  List.iter
    (fun (u, v) -> targets := u :: v :: !targets)
    !edges;
  let target_array = ref (Array.of_list !targets) in
  let target_count = ref (Array.length !target_array) in
  let push endpoint =
    if !target_count = Array.length !target_array then begin
      let grown = Array.make (Stdlib.max 8 (2 * !target_count)) 0 in
      Array.blit !target_array 0 grown 0 !target_count;
      target_array := grown
    end;
    !target_array.(!target_count) <- endpoint;
    incr target_count
  in
  for v = m + 1 to n - 1 do
    let chosen = Hashtbl.create m in
    while Hashtbl.length chosen < m do
      let candidate = !target_array.(Prng.Rng.int rng !target_count) in
      if not (Hashtbl.mem chosen candidate) then Hashtbl.add chosen candidate ()
    done;
    Hashtbl.iter
      (fun u () ->
        edges := (u, v) :: !edges;
        push u;
        push v)
      chosen
  done;
  Graph.create Undirected ~n !edges

let watts_strogatz rng ~n ~k ~beta =
  if k < 1 then invalid_arg "Gen.watts_strogatz: need k >= 1";
  if 2 * k >= n - 1 then invalid_arg "Gen.watts_strogatz: need 2k < n - 1";
  if not (beta >= 0. && beta <= 1.) then
    invalid_arg "Gen.watts_strogatz: beta not in [0,1]";
  let present = Hashtbl.create (n * k) in
  let canonical u v = if u < v then (u, v) else (v, u) in
  let add u v = Hashtbl.replace present (canonical u v) () in
  let mem u v = Hashtbl.mem present (canonical u v) in
  let remove u v = Hashtbl.remove present (canonical u v) in
  for u = 0 to n - 1 do
    for offset = 1 to k do
      add u ((u + offset) mod n)
    done
  done;
  (* Rewire each original lattice edge (u, u+offset) with prob beta. *)
  for u = 0 to n - 1 do
    for offset = 1 to k do
      let v = (u + offset) mod n in
      if Prng.Rng.bernoulli rng beta && mem u v then begin
        (* Choose a fresh endpoint for u, avoiding self and duplicates;
           bounded retries guard the (astronomically unlikely) case of a
           rewiring-saturated vertex — the edge is then kept in place. *)
        let rec fresh attempts =
          if attempts > 16 * n then None
          else
            let w = Prng.Rng.int rng n in
            if w = u || mem u w then fresh (attempts + 1) else Some w
        in
        match fresh 0 with
        | Some w ->
          remove u v;
          add u w
        | None -> ()
      end
    done
  done;
  Graph.create Undirected ~n (List.of_seq (Hashtbl.to_seq_keys present))
