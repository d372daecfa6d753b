type t = {
  lo : float;
  hi : float;
  bins : int;
  width : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if not (hi > lo) then invalid_arg "Histogram.create: need hi > lo";
  {
    lo;
    hi;
    bins;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
  }

let add t x =
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x > t.hi then t.overflow <- t.overflow + 1
  else begin
    let raw = int_of_float ((x -. t.lo) /. t.width) in
    let bin = Stdlib.min raw (t.bins - 1) in
    t.counts.(bin) <- t.counts.(bin) + 1
  end

let bin_edges t =
  Array.init t.bins (fun i ->
      ( t.lo +. (float_of_int i *. t.width),
        t.lo +. (float_of_int (i + 1) *. t.width) ))

let render ?(width = 40) t =
  let peak = Array.fold_left Stdlib.max 1 t.counts in
  let buf = Buffer.create 256 in
  let edges = bin_edges t in
  Array.iteri
    (fun i c ->
      let lo, hi = edges.(i) in
      let bar = c * width / peak in
      Buffer.add_string buf
        (Printf.sprintf "[%8.3g, %8.3g) %6d %s\n" lo hi c (String.make bar '#')))
    t.counts;
  if t.underflow > 0 then
    Buffer.add_string buf (Printf.sprintf "underflow %d\n" t.underflow);
  if t.overflow > 0 then
    Buffer.add_string buf (Printf.sprintf "overflow %d\n" t.overflow);
  Buffer.contents buf
