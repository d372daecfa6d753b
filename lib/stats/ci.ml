type interval = { lo : float; hi : float }

(* Acklam's rational approximation to the standard normal quantile;
   absolute error below 1.15e-9 over (0,1). *)
let normal_quantile p =
  if not (p > 0. && p < 1.) then invalid_arg "Ci: probability must be in (0,1)";
  let a0 = -3.969683028665376e+01 and a1 = 2.209460984245205e+02 in
  let a2 = -2.759285104469687e+02 and a3 = 1.383577518672690e+02 in
  let a4 = -3.066479806614716e+01 and a5 = 2.506628277459239e+00 in
  let b0 = -5.447609879822406e+01 and b1 = 1.615858368580409e+02 in
  let b2 = -1.556989798598866e+02 and b3 = 6.680131188771972e+01 in
  let b4 = -1.328068155288572e+01 in
  let c0 = -7.784894002430293e-03 and c1 = -3.223964580411365e-01 in
  let c2 = -2.400758277161838e+00 and c3 = -2.549732539343734e+00 in
  let c4 = 4.374664141464968e+00 and c5 = 2.938163982698783e+00 in
  let d0 = 7.784695709041462e-03 and d1 = 3.224671290700398e-01 in
  let d2 = 2.445134137142996e+00 and d3 = 3.754408661907416e+00 in
  let tail q =
    ((((((c0 *. q) +. c1) *. q +. c2) *. q +. c3) *. q +. c4) *. q +. c5)
    /. ((((d0 *. q +. d1) *. q +. d2) *. q +. d3) *. q +. 1.)
  in
  let p_low = 0.02425 in
  if p < p_low then tail (sqrt (-2. *. log p))
  else if p <= 1. -. p_low then
    let q = p -. 0.5 in
    let r = q *. q in
    q
    *. (((((a0 *. r +. a1) *. r +. a2) *. r +. a3) *. r +. a4) *. r +. a5)
    /. (((((b0 *. r +. b1) *. r +. b2) *. r +. b3) *. r +. b4) *. r +. 1.)
  else -.tail (sqrt (-2. *. log (1. -. p)))

let z_of_confidence confidence =
  match confidence with
  | 0.80 -> 1.2815515655
  | 0.90 -> 1.6448536270
  | 0.95 -> 1.9599639845
  | 0.98 -> 2.3263478740
  | 0.99 -> 2.5758293035
  | 0.999 -> 3.2905267315
  | c when c > 0. && c < 1. -> normal_quantile (0.5 +. (c /. 2.))
  | _ -> invalid_arg "Ci.z_of_confidence: confidence must be in (0,1)"

let wilson ?(confidence = 0.95) ~trials successes =
  if trials <= 0 then invalid_arg "Ci.wilson: trials must be positive";
  if successes < 0 || successes > trials then
    invalid_arg "Ci.wilson: successes out of range";
  let z = z_of_confidence confidence in
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let centre = p +. (z2 /. (2. *. n)) in
  let margin = z *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) in
  { lo = (centre -. margin) /. denom; hi = (centre +. margin) /. denom }
