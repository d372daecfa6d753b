
let harmonic d =
  let h = ref 0. in
  for k = 1 to d do
    h := !h +. (1. /. float_of_int k)
  done;
  !h

let thm7_labels ~diameter ~n = 2. *. float_of_int diameter *. log (float_of_int n)

let coupon_labels ~diameter ~n ~m =
  let d = float_of_int diameter in
  d *. (log (Float.max 1. d) +. log (float_of_int m *. float_of_int n))

let gnp_connectivity_threshold ~n = log (float_of_int n) /. float_of_int n

let thm5_lower_bound ~n ~a =
  float_of_int a /. float_of_int n *. log (float_of_int n)
