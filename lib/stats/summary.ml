type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; min = Float.nan; max = Float.nan; total = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  t.total <- t.total +. x;
  if t.n = 1 then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let add_int t x = add t (float_of_int x)

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else
    let n = a.n + b.n in
    let fa = float_of_int a.n and fb = float_of_int b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. fb /. float_of_int n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int n) in
    {
      n;
      mean;
      m2;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      total = a.total +. b.total;
    }

let count t = t.n
let mean t = if t.n = 0 then Float.nan else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let stderr_mean t =
  if t.n = 0 then Float.nan else stddev t /. sqrt (float_of_int t.n)

let min t = t.min
let max t = t.max
let total t = t.total

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.n (mean t)
    (stddev t) t.min t.max
