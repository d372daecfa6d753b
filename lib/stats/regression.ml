type fit = { alpha : float; beta : float; r2 : float; n : int }

let pp_fit ppf { alpha; beta; r2; n } =
  Format.fprintf ppf "y = %.4g + %.4g*x (R^2=%.4f, n=%d)" alpha beta r2 n

let fit_arrays xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Regression.fit_arrays: length mismatch";
  if n < 2 then invalid_arg "Regression.fit_arrays: need at least two points";
  let fn = float_of_int n in
  let sum = Array.fold_left ( +. ) 0. in
  let mean_x = sum xs /. fn and mean_y = sum ys /. fn in
  let sxx = ref 0. and sxy = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mean_x and dy = ys.(i) -. mean_y in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0. then invalid_arg "Regression.fit_arrays: all x equal";
  let beta = !sxy /. !sxx in
  let alpha = mean_y -. (beta *. mean_x) in
  let r2 =
    if !syy = 0. then 1. else 1. -. ((!syy -. (beta *. !sxy)) /. !syy)
  in
  { alpha; beta; r2; n }

let fit points =
  let xs = Array.of_list (List.map fst points) in
  let ys = Array.of_list (List.map snd points) in
  fit_arrays xs ys

let fit_against ~f points = fit (List.map (fun (x, y) -> (f x, y)) points)
let fit_log points = fit_against ~f:log points
