(* The four state words live in 32 bytes of unboxed storage, read and
   written with the unchecked 64-bit bytes primitives.  Mutable [int64]
   record fields would box a fresh Int64 on every store.  Under dune's
   default -opaque build nothing inlines across modules, so the bounded
   draw and the coin flip step the state here, in the same function
   that consumes the output: no [int64] crosses a call on those paths,
   and a draw allocates nothing. *)
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
   native too. *)
let rec next_in t bound =
  if bound <= 0 then invalid_arg "Xoshiro256.next_in: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  if v <= max_int - bound || v < max_int / bound * bound then v mod bound
  else next_in t bound

(* [next_in] over a whole array, the state held in four local [int64]
   refs that the compiler keeps unboxed in registers: one load and one
   store of the state per fill instead of per draw.  The step is
   [step]'s, and the rule is [next_in]'s: accepting exactly
   [v < limit] is the same test, since [limit > max_int - bound]; the
   limit is computed once per fill. *)
let fill_in t bound ~base a =
  if bound <= 0 then invalid_arg "Xoshiro256.fill_in: bound must be positive";
  let limit = max_int / bound * bound in
  let s0 = ref (get t 0) and s1 = ref (get t 8) in
  let s2 = ref (get t 16) and s3 = ref (get t 24) in
  let i = ref 0 in
  while !i < Array.length a do
    let x0 = !s0 and x1 = !s1 in
    let result = Int64.mul (rotl (Int64.mul x1 5L) 7) 9L in
    let x2 = Int64.logxor !s2 x0 in
    let x3 = Int64.logxor !s3 x1 in
    s0 := Int64.logxor x0 x3;
    s1 := Int64.logxor x1 x2;
    s2 := Int64.logxor x2 (Int64.shift_left x1 17);
    s3 := rotl x3 45;
    let v = Int64.to_int (Int64.shift_right_logical result 2) in
    if v < limit then begin
      Array.unsafe_set a !i (base + (v mod bound));
      incr i
    end
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3

let next_bool t = Int64.logand (step t) 1L = 1L

let jump_table =
  [|
    0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
    0x39ABDC4529B1661CL;
  |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set acc (8 * i) (Int64.logxor (get acc (8 * i)) (get t (8 * i)))
          done;
        ignore (step t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
