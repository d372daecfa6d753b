type t = Xoshiro256.t

let create seed = Xoshiro256.create seed
let copy = Xoshiro256.copy
let bits64 = Xoshiro256.next

let split t =
  let sm = Splitmix64.of_int64 (Xoshiro256.next t) in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then Xoshiro256.of_state 1L 2L 3L 4L
  else Xoshiro256.of_state s0 s1 s2 s3

let split_n t k = Array.init k (fun _ -> split t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Xoshiro256.next_in t bound

let fill_int t ~base bound ~cut cells =
  if bound <= 0 then invalid_arg "Rng.fill_int: bound must be positive";
  if base < 0 || bound - 1 > Cells.max_value - base then
    invalid_arg "Rng.fill_int: values must fit a cell";
  Xoshiro256.fill_in t bound ~base ~cut cells

let float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let bernoulli t p = float t < p
