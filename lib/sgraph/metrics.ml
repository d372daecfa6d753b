let eccentricity g v =
  let dist = Traverse.bfs g v in
  let ecc = ref 0 in
  Array.iter
    (fun d ->
      if d = Traverse.unreachable then ecc := Traverse.unreachable
      else if !ecc <> Traverse.unreachable && d > !ecc then ecc := d)
    dist;
  !ecc

let diameter g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Metrics: empty graph";
  let d = ref 0 in
  for v = 0 to n - 1 do
    d := Stdlib.max !d (eccentricity g v)
  done;
  !d
