type t = int array

let empty = [||]

let normalise arr =
  Array.iter
    (fun l ->
      if l < 1 then invalid_arg "Label: labels must be positive")
    arr;
  Array.sort compare arr;
  (* Deduplicate in place, then trim. *)
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if arr.(r) <> arr.(!w - 1) then begin
        arr.(!w) <- arr.(r);
        incr w
      end
    done;
    if !w = n then arr else Array.sub arr 0 !w
  end

let of_array arr = normalise (Array.copy arr)
let of_list labels = normalise (Array.of_list labels)
let singleton l = of_list [ l ]

let range lo hi =
  if lo < 1 then invalid_arg "Label.range: lo must be >= 1";
  if hi < lo then empty else Array.init (hi - lo + 1) (fun i -> lo + i)

let to_list = Array.to_list
let size = Array.length
let is_empty t = Array.length t = 0
let max_label t = if is_empty t then 0 else t.(Array.length t - 1)
let min_label t = if is_empty t then max_int else t.(0)

(* Index of the first element > x, or length if none. *)
let upper_bound t x =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem t x =
  let i = upper_bound t (x - 1) in
  i < Array.length t && t.(i) = x

let next_after t x =
  let i = upper_bound t x in
  if i < Array.length t then t.(i) else max_int

let next_in t ~lo ~hi =
  let i = upper_bound t lo in
  if i < Array.length t && t.(i) <= hi then t.(i) else max_int

let any_in t ~lo ~hi =
  let i = upper_bound t lo in
  if i < Array.length t && t.(i) <= hi then Some t.(i) else None

let union a b = normalise (Array.append a b)
let within_lifetime t a = max_label t <= a
let pp ppf t = Fmt.pf ppf "{%a}" Fmt.(array ~sep:(any ",") int) t
