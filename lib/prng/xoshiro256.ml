(* The four state words live in 32 bytes of unboxed storage, read and
   written with the unchecked 64-bit bytes primitives, and as native
   [uint64_t]s by the fill kernel.  Mutable [int64] record fields would
   box a fresh Int64 on every store.  Under dune's default -opaque
   build nothing inlines across modules, so the bounded draw steps the
   state here, in the same function that consumes the output: no
   [int64] crosses a call on that path, and a draw allocates nothing. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 output is never all-zero across four draws in practice, but
     guard anyway so [of_state] cannot reject. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_state 1L 2L 3L 4L
  else of_state s0 s1 s2 s3

let copy = Bytes.copy

let[@inline always] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: stores the advanced state and returns the
   output.  Inlined into each caller below, so the output stays in a
   register. *)
let[@inline always] step t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let next t = step t

(* Uniform on [0, bound) from the top 62 bits [v] of one output,
   rejecting [v >= limit] with [limit = ⌊(2^62 - 1) / bound⌋ · bound]
   so that every residue is equally likely; test_prng.ml checks it
   draw for draw against the same rule written on Int64.
   [limit >= 2^62 - bound], so below that every [v] is accepted without
   computing [limit]; the division only runs for the top [bound] values.
   [v] fits a native int (max_int = 2^62 - 1), so the remainder is
   native too.  At a power-of-two bound the limit is exactly
   [2^62 - bound] and the remainder is [v land (bound - 1)]: the same
   draws, without a divide. *)
let rec next_in t bound =
  if bound <= 0 then invalid_arg "Xoshiro256.next_in: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  if v <= max_int - bound || v < max_int / bound * bound then
    if bound land (bound - 1) = 0 then v land (bound - 1) else v mod bound
  else next_in t bound

(* The list's first capacity: the expected count [len * (top + 1) /
   bound], rounded up, plus a sixteenth; at most [len], which no list
   can outgrow.  Floats, since [len * bound] may not fit an int. *)
let first_capacity ~len ~top bound =
  if top < 0 || len = 0 then 0
  else if top >= bound - 1 then len
  else
    let expected =
      float_of_int len *. float_of_int (top + 1) /. float_of_int bound
    in
    let e = Float.to_int (Float.ceil expected) in
    Stdlib.min len (e + (e lsr 4))

(* [next_in] over a whole cell array, the draws in C
   ([xoshiro256_stubs.c]): the same step, rule and remainder, with the
   state loaded once per call and stored back after it.  [v < limit]
   is [next_in]'s test, since [limit > max_int - bound].  A draw [r] is
   listed iff [r <= top = cut - base].

   A call draws one stretch.  The kernel writes each kept draw's index
   to the list's next slot, listed or not, so a stretch ends where the
   list cannot have filled yet (a draw adds at most one position):
   every slot it writes exists, and the list grows here, between
   stretches.  A stretch is also at most [stretch] draws (about
   0.3 ms): a [noalloc] call does not poll, so a longer one would hold
   up the stop-the-world collections of other domains.

   [fill_stretch t cells pos bound limit base top i stop count] draws
   cells [i .. stop - 1] and returns the new list count. *)
external fill_stretch :
  t -> Cells.t -> int array -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "prng_fill_stretch_byte" "prng_fill_stretch"
[@@noalloc]

let stretch = 1 lsl 16

let fill_in t bound ~base ~cut cells =
  if bound <= 0 then invalid_arg "Xoshiro256.fill_in: bound must be positive";
  if base < 0 || bound - 1 > Cells.max_value - base then
    invalid_arg "Xoshiro256.fill_in: values must fit a cell";
  let limit = max_int / bound * bound in
  let n = Cells.length cells in
  let top = if cut < base then -1 else cut - base in
  let pos = ref (Array.make (first_capacity ~len:n ~top bound) 0) in
  let count = ref 0 and i = ref 0 in
  while !i < n do
    let p = !pos in
    let room = if top < 0 then stretch else Array.length p - !count in
    let stop = !i + Stdlib.min (Stdlib.min room stretch) (n - !i) in
    count := fill_stretch t cells p bound limit base top !i stop !count;
    i := stop;
    if !i < n && top >= 0 && !count = Array.length p then begin
      let grown = Array.make (Stdlib.min n (2 * Array.length p)) 0 in
      Array.blit p 0 grown 0 !count;
      pos := grown
    end
  done;
  (!pos, !count)
