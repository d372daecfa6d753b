type t = { parent : int array; rank : int array; mutable count : int }

let create n =
  { parent = Array.init n (fun i -> i); rank = Array.make n 0; count = n }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t x y =
  let rx = find t x and ry = find t y in
  if rx = ry then false
  else begin
    let rx, ry =
      if t.rank.(rx) < t.rank.(ry) then (ry, rx) else (rx, ry)
    in
    t.parent.(ry) <- rx;
    if t.rank.(rx) = t.rank.(ry) then t.rank.(rx) <- t.rank.(rx) + 1;
    t.count <- t.count - 1;
    true
  end

let count t = t.count
