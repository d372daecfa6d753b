(* Derived labels: a temporal assignment that is never stored.  An
   instance is just [(seed, a, r)]; edge [e]'s label multiset is the
   [r] uniform draws over {1..a} obtained by hashing [(seed, e, k)]
   with SplitMix64, so every query recomputes its answer in O(r) time
   and O(1) memory.  Same constants and finalizer as [Prng.Splitmix64],
   but stateless: the whole chain lives in local [Int64]s.  The native
   compiler unboxes those only inside one function body, so [mix64] is
   [@inline]: called out of line, its [int64] argument and result box
   on every roll (6 words at [k = 0], 12 at [k >= 1]), and full E23
   rolls 10^10 labels.

   Site-independence contract: roll [k] of edge [e] depends only on
   [(seed, e, k)] — never on query order, domain, or how many other
   edges were rolled first.  That is what makes the derived labelling
   provably identical to a materialized array of the same rolls, and
   what keeps every consumer byte-deterministic at any [--jobs]. *)

let golden = 0x9E3779B97F4A7C15L
let mix_1 = 0xBF58476D1CE4E5B9L
let mix_2 = 0x94D049BB133111EBL

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) mix_1 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) mix_2 in
  Int64.logxor z (Int64.shift_right_logical z 31)

type t = { seed : int64; a : int; r : int }

let make ~seed ~a ~r =
  if a < 1 then invalid_arg "Implicit.Labels.make: need a >= 1";
  if r < 1 then invalid_arg "Implicit.Labels.make: need r >= 1";
  { seed; a; r }

let seed t = t.seed
let alpha t = t.a
let rolls_per_edge t = t.r

(* Roll 0 of edge [e] is literally the [(e+1)]-th output of the
   SplitMix64 stream seeded at [seed]; rolls 1..r-1 rehash that output
   with the roll index.  The top 63 bits feed the modulus, so the bias
   against any value in {1..a} is < a / 2^63 — immaterial here, and in
   any case both backends use this exact function, so equivalence is
   exact, not merely statistical. *)
let roll t ~edge ~k =
  let z = mix64 (Int64.add t.seed (Int64.mul golden (Int64.of_int (edge + 1)))) in
  let z =
    if k = 0 then z
    else mix64 (Int64.add z (Int64.mul golden (Int64.of_int k)))
  in
  1 + Int64.to_int (Int64.rem (Int64.shift_right_logical z 1) (Int64.of_int t.a))

(* Probes: one [crossing_queries] tick per scalar query answered from
   derived labels, [label_rolls] ticks for the hashes it took.  Updated
   after the (tiny) per-query loop and only while Obs.Control is on.
   Query counts depend only on the work a run performs, never on domain
   interleaving, so both counters land in the run ledger's
   deterministic section. *)
let rolls_c = Obs.Metrics.counter "implicit.label_rolls"
let queries_c = Obs.Metrics.counter "implicit.crossing_queries"

let note_query t =
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr queries_c;
    Obs.Metrics.add rolls_c t.r
  end

let note_bulk_rolls count =
  if Obs.Control.enabled () then Obs.Metrics.add rolls_c count

(* Scalar query set, mirroring [Label.t]'s *set* semantics: the r rolls
   of an edge form a multiset, and queries see its distinct support
   (exactly what [Label.of_array] keeps after sort + dedup). *)

let has t ~edge x =
  let found = ref false in
  for k = 0 to t.r - 1 do
    if roll t ~edge ~k = x then found := true
  done;
  note_query t;
  !found

let next_after t ~edge x =
  let best = ref max_int in
  for k = 0 to t.r - 1 do
    let l = roll t ~edge ~k in
    if l > x && l < !best then best := l
  done;
  note_query t;
  !best

let next_in t ~edge ~lo ~hi =
  let l = next_after t ~edge lo in
  if l <= hi then l else max_int

let size t ~edge =
  if t.r = 1 then begin
    note_query t;
    1
  end
  else begin
    (* Count distinct rolls: for each roll, is it the first occurrence? *)
    let distinct = ref 0 in
    for k = 0 to t.r - 1 do
      let l = roll t ~edge ~k in
      let first = ref true in
      for j = 0 to k - 1 do
        if roll t ~edge ~k:j = l then first := false
      done;
      if !first then incr distinct
    done;
    note_query t;
    !distinct
  end

(* Distinct rolls in ascending order — the order [Label.t] presents.
   O(r log r) with one small allocation; only convenience paths use
   it. *)
let iter t ~edge f =
  if t.r = 1 then begin
    note_query t;
    f (roll t ~edge ~k:0)
  end
  else begin
    let buf = Array.init t.r (fun k -> roll t ~edge ~k) in
    Array.sort compare buf;
    let prev = ref 0 in
    Array.iter
      (fun l ->
        if l <> !prev then f l;
        prev := l)
      buf;
    note_query t
  end

(* The sorted distinct rolls of [edge] written into [buf] (length
   >= r); returns how many there are.  The allocation-free workhorse
   behind the stream builder's per-edge collect. *)
let fill_sorted t ~edge buf =
  if t.r = 1 then begin
    buf.(0) <- roll t ~edge ~k:0;
    1
  end
  else begin
    for k = 0 to t.r - 1 do
      buf.(k) <- roll t ~edge ~k
    done;
    (* Insertion sort: r is small (paper regimes use r <= O(log n)). *)
    for k = 1 to t.r - 1 do
      let x = buf.(k) in
      let j = ref (k - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done;
    let w = ref 1 in
    for k = 1 to t.r - 1 do
      if buf.(k) <> buf.(!w - 1) then begin
        buf.(!w) <- buf.(k);
        incr w
      end
    done;
    !w
  end
