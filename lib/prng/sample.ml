let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation rng n =
  let a = Array.init n (fun i -> i) in
  shuffle rng a;
  a

let choose_distinct rng ~k ~n =
  if k < 0 || k > n then invalid_arg "Sample.choose_distinct: need 0 <= k <= n";
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

let geometric rng ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Sample.geometric: need 0 < p <= 1";
  if p = 1. then 1
  else
    let u = 1. -. Rng.float rng in
    (* u in (0,1]; inversion of the geometric CDF. *)
    1 + int_of_float (Float.log u /. Float.log1p (-.p))

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Sample.binomial: need n >= 0";
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng p then incr count
  done;
  !count

module Zipf_cache = struct
  type t = { cumulative : float array }

  let create ~s ~n =
    if n <= 0 then invalid_arg "Sample.Zipf_cache.create: need n > 0";
    let cumulative = Array.make n 0. in
    let total = ref 0. in
    for k = 1 to n do
      total := !total +. (1. /. Float.pow (float_of_int k) s);
      cumulative.(k - 1) <- !total
    done;
    let norm = !total in
    Array.iteri (fun i c -> cumulative.(i) <- c /. norm) cumulative;
    { cumulative }

  let draw t rng =
    let u = Rng.float rng in
    let cumulative = t.cumulative in
    (* Smallest index with cumulative.(i) > u. *)
    let lo = ref 0 and hi = ref (Array.length cumulative - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo + 1
end

