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

let merge_sorted xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  if nx = 0 then Array.copy ys
  else if ny = 0 then Array.copy xs
  else begin
    let out = Array.make (nx + ny) 0. in
    let i = ref 0 and j = ref 0 in
    for k = 0 to nx + ny - 1 do
      (* Take from xs on ties: a stable merge of ascending runs. *)
      if !i < nx && (!j >= ny || Float.compare xs.(!i) ys.(!j) <= 0) then begin
        out.(k) <- xs.(!i);
        incr i
      end
      else begin
        out.(k) <- ys.(!j);
        incr j
      end
    done;
    out
  end
