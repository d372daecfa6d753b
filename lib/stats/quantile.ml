let of_sorted xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.of_sorted: empty sample";
  if not (q >= 0. && q <= 1.) then invalid_arg "Quantile.of_sorted: q not in [0,1]";
  if n = 1 then xs.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))

let sorted_copy xs =
  let copy = Array.copy xs in
  Array.sort Float.compare copy;
  copy

let quantile xs q = of_sorted (sorted_copy xs) q
let median xs = quantile xs 0.5
