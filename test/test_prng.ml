(* Tests for lib/prng: generators, sampling, label distributions. *)

open Helpers
module Rng = Prng.Rng
module Sample = Prng.Sample
module Dist = Prng.Dist
module Cells = Prng.Cells

(* --------------------------------------------------------------- *)
(* Splitmix64 / Xoshiro256 *)

let splitmix_deterministic () =
  let a = Prng.Splitmix64.create 42 and b = Prng.Splitmix64.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Splitmix64.next a)
      (Prng.Splitmix64.next b)
  done

let splitmix_copy_replays () =
  let a = Prng.Splitmix64.create 7 in
  ignore (Prng.Splitmix64.next a);
  let b = Prng.Splitmix64.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Prng.Splitmix64.next a)
      (Prng.Splitmix64.next b)
  done

let splitmix_seeds_differ () =
  let a = Prng.Splitmix64.create 1 and b = Prng.Splitmix64.create 2 in
  check_bool "different seeds diverge" false
    (Prng.Splitmix64.next a = Prng.Splitmix64.next b)

let splitmix_next_in_bounds () =
  let g = Prng.Splitmix64.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.Splitmix64.next_in g 7 in
    check_bool "in [0,7)" true (v >= 0 && v < 7)
  done

let splitmix_next_in_invalid () =
  let g = Prng.Splitmix64.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument
    "Splitmix64.next_in: bound must be positive") (fun () ->
      ignore (Prng.Splitmix64.next_in g 0))

let xoshiro_deterministic () =
  let a = Prng.Xoshiro256.create 9 and b = Prng.Xoshiro256.create 9 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Xoshiro256.next a)
      (Prng.Xoshiro256.next b)
  done

let xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Prng.Xoshiro256.of_state 0L 0L 0L 0L))

let xoshiro_jump_diverges () =
  let a = Prng.Xoshiro256.create 3 in
  let b = Prng.Xoshiro256.copy a in
  Prng.Xoshiro256.jump b;
  let overlap = ref false in
  let first_a = Prng.Xoshiro256.next a in
  for _ = 1 to 1000 do
    if Prng.Xoshiro256.next b = first_a then overlap := true
  done;
  check_bool "jumped stream avoids the original prefix" false !overlap

(* --------------------------------------------------------------- *)
(* Rng *)

let rng_int_bounds () =
  let g = rng () in
  for bound = 1 to 20 do
    for _ = 1 to 200 do
      let v = Rng.int g bound in
      check_bool "0 <= v < bound" true (v >= 0 && v < bound)
    done
  done

let rng_int_invalid () =
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int (rng ()) 0))

let rng_int_covers_range () =
  let g = rng () in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int g 5) <- true
  done;
  check_bool "all values hit" true (Array.for_all Fun.id seen)

let rng_int_in () =
  let g = rng () in
  let lo = ref max_int and hi = ref min_int in
  for _ = 1 to 2000 do
    let v = Rng.int_in g 3 9 in
    check_bool "in [3,9]" true (v >= 3 && v <= 9);
    lo := min !lo v;
    hi := max !hi v
  done;
  check_int "min attained" 3 !lo;
  check_int "max attained" 9 !hi

let rng_int_in_singleton () =
  check_int "degenerate range" 4 (Rng.int_in (rng ()) 4 4)

let rng_int_in_invalid () =
  Alcotest.check_raises "empty range"
    (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in (rng ()) 5 4))

let rng_float_range () =
  let g = rng () in
  for _ = 1 to 2000 do
    let v = Rng.float g in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let rng_float_mean () =
  let g = rng () in
  let total = ref 0. in
  let n = 20000 in
  for _ = 1 to n do
    total := !total +. Rng.float g
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let rng_bool_both () =
  let g = rng () in
  let t = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool g then incr t
  done;
  check_bool "roughly balanced" true (!t > 400 && !t < 600)

let rng_bernoulli_extremes () =
  let g = rng () in
  for _ = 1 to 100 do
    check_bool "p=1 always true" true (Rng.bernoulli g 1.0);
    check_bool "p=0 always false" false (Rng.bernoulli g 0.0)
  done

let rng_split_independent () =
  let g = rng () in
  let a = Rng.split g and b = Rng.split g in
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Rng.bits64 a = Rng.bits64 b then incr equal
  done;
  check_bool "children differ" true (!equal < 5)

let rng_split_reproducible () =
  let stream seed =
    let g = Rng.create seed in
    let child = Rng.split g in
    List.init 20 (fun _ -> Rng.bits64 child)
  in
  Alcotest.(check (list int64)) "same split stream" (stream 11) (stream 11)

let rng_split_n () =
  let g = rng () in
  check_int "split_n length" 7 (Array.length (Rng.split_n g 7))

(* The parallel runner's determinism rests on this: pre-splitting all
   per-trial streams upfront gives each child exactly the stream it
   would have under lazy sequential splitting, and draws from one child
   never perturb another — so any execution interleaving of the
   children reads the same numbers. *)
let split_n_interleaving_independent =
  qcase "split_n streams independent of draw interleaving"
    ~print:(fun (seed, k) -> Printf.sprintf "(seed=%d, k=%d)" seed k)
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 8))
    (fun (seed, k) ->
      let draws = 5 in
      (* All children split upfront, each drained in turn. *)
      let upfront =
        let rs = Rng.split_n (Rng.create seed) k in
        Array.map (fun r -> Array.init draws (fun _ -> Rng.bits64 r)) rs
      in
      (* Child i split lazily, only after children < i were drained. *)
      let lazy_interleaved =
        let g = Rng.create seed in
        let out = Array.make k [||] in
        for i = 0 to k - 1 do
          let r = Rng.split g in
          out.(i) <- Array.init draws (fun _ -> Rng.bits64 r)
        done;
        out
      in
      (* All children split upfront, drained round-robin. *)
      let round_robin =
        let rs = Rng.split_n (Rng.create seed) k in
        let out = Array.make_matrix k draws 0L in
        for j = 0 to draws - 1 do
          for i = 0 to k - 1 do
            out.(i).(j) <- Rng.bits64 rs.(i)
          done
        done;
        out
      in
      upfront = lazy_interleaved && upfront = round_robin)

let rng_copy_replays () =
  let g = rng () in
  ignore (Rng.bits64 g);
  let twin = Rng.copy g in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Rng.bits64 g) (Rng.bits64 twin)
  done

(* --------------------------------------------------------------- *)
(* Pinned streams.  Every table in the repository is a function of
   these outputs, so any rewrite of the generators' representation must
   reproduce them exactly. *)

let check_stream msg expected next =
  Alcotest.(check (list int64)) msg expected
    (List.init (List.length expected) (fun _ -> next ()))

(* Blackman & Vigna's reference xoshiro256** from state (1, 2, 3, 4). *)
let xoshiro_known_answer () =
  let x = Prng.Xoshiro256.of_state 1L 2L 3L 4L in
  check_stream "published outputs"
    [ 11520L; 0L; 1509978240L; 1215971899390074240L ]
    (fun () -> Prng.Xoshiro256.next x)

let xoshiro_jump_pinned () =
  let x = Prng.Xoshiro256.of_state 1L 2L 3L 4L in
  Prng.Xoshiro256.jump x;
  check_stream "jumped (1,2,3,4)"
    [ -4912596984176294952L; 7126240192422241655L; 3805973808039778091L ]
    (fun () -> Prng.Xoshiro256.next x);
  let x = Prng.Xoshiro256.create 42 in
  Prng.Xoshiro256.jump x;
  check_stream "jumped seed 42"
    [ 5766981335298035530L; -5032668395946387709L; 6818771422820058410L ]
    (fun () -> Prng.Xoshiro256.next x)

let rng_copy_pinned () =
  let g = Rng.create 42 in
  check_stream "seed 42"
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ]
    (fun () -> Rng.bits64 g);
  let twin = Rng.copy g in
  let rest =
    [ -1389169964527427423L; -151191095644234140L; -4247557243643801032L ]
  in
  check_stream "original continues" rest (fun () -> Rng.bits64 g);
  check_stream "copy replays" rest (fun () -> Rng.bits64 twin)

let rng_split_pinned () =
  let g = Rng.create 42 in
  let child = Rng.split g in
  check_stream "child stream"
    [ -8150312660505607085L; 1184342940732292706L; 8258043193327897829L ]
    (fun () -> Rng.bits64 child);
  check_stream "parent spent one output"
    [ 6990951692964543102L; -5902157311460992607L ]
    (fun () -> Rng.bits64 g)

let rng_draws_pinned () =
  let g = Rng.create 7 in
  Alcotest.(check (list int)) "int 1000"
    [ 998; 668; 909; 416; 166; 930; 429; 799; 352; 904 ]
    (List.init 10 (fun _ -> Rng.int g 1000));
  Alcotest.(check (list bool)) "bool"
    (List.map (( = ) 1) [ 1; 0; 1; 1; 0; 1; 1; 0; 1; 1; 1; 0; 1; 0; 0; 0 ])
    (List.init 16 (fun _ -> Rng.bool g))

(* [Rng.int] and [Rng.bool] transcribed directly on Int64 over raw
   [bits64] outputs: the reference the allocation-free versions must
   match draw for draw. *)
let int_reference_of next bound =
  let range = Int64.of_int bound in
  let limit = Int64.mul (Int64.div 0x3FFF_FFFF_FFFF_FFFFL range) range in
  let rec draw () =
    let v = Int64.shift_right_logical (next ()) 2 in
    if v < limit then Int64.to_int (Int64.rem v range) else draw ()
  in
  draw ()

let int_reference g bound = int_reference_of (fun () -> Rng.bits64 g) bound

let bool_reference g = Int64.logand (Rng.bits64 g) 1L = 1L

(* Bounds of every magnitude: small ones, any positive int, ones
   above 2^61, where about half of all outputs fall in the rejected
   tail, and every power of two up to 2^61, whose remainder is a mask
   (at 2^61 half of all outputs are rejected too). *)
let gen_bound =
  QCheck2.Gen.(
    map
      (fun (kind, x) ->
        match kind with
        | 0 -> 1 + (x land 1023)
        | 1 -> max 1 (x land max_int)
        | 2 -> (1 lsl 61) lor (x land ((1 lsl 61) - 1))
        | _ -> 1 lsl ((x land max_int) mod 62))
      (pair (int_range 0 3) int))

let rng_matches_int64_reference =
  qcase ~count:300 "int and bool = Int64 reference"
    ~print:(fun (seed, bounds) ->
      Printf.sprintf "(seed=%d, bounds=[%s])" seed
        (String.concat "; " (List.map string_of_int bounds)))
    QCheck2.Gen.(pair int (list_size (int_range 1 20) gen_bound))
    (fun (seed, bounds) ->
      let g = Rng.create seed in
      let twin = Rng.copy g in
      List.for_all
        (fun bound ->
          Rng.int g bound = int_reference twin bound
          && Rng.bool g = bool_reference twin)
        bounds
      && Rng.bits64 g = Rng.bits64 twin)

let rng_draws_allocate_nothing () =
  let g = rng () in
  let draws k () =
    for _ = 1 to k do
      ignore (Sys.opaque_identity (Rng.int g 1000));
      ignore (Sys.opaque_identity (Rng.int g 1024));
      ignore (Sys.opaque_identity (Rng.int g ((1 lsl 61) + 1)));
      ignore (Sys.opaque_identity (Rng.bool g))
    done
  in
  let (), small = allocated_words (draws 1_000) in
  let (), large = allocated_words (draws 10_000) in
  check_bool
    (Printf.sprintf "1k draws: %.0f words (constant)" small)
    true (small <= 32.);
  check_bool
    (Printf.sprintf "10k draws: %.0f words, same as 1k" large)
    true (large <= small +. 4.)

(* [Rng.int] at fixed bounds against its Int64 reference, and the share
   of raw outputs the rejection rule throws away: none at small bounds,
   about half at 2^61 (the mask path) and at 2^61 + 1 (the divide). *)
let int_bounds =
  [ 1; 2; 7; 1000; 1024; 65535; 1 lsl 40; (1 lsl 40) + 17; 1 lsl 61;
    (1 lsl 61) + 1; max_int ]

(* Raw outputs [draw g] consumes: step a copy of the generator taken
   before it until the copy replays the output [g] gives next. *)
let raw_outputs_consumed draw =
  let g = Rng.create 5 in
  let before = Rng.copy g in
  draw g;
  let next = Rng.bits64 g in
  let k = ref 0 in
  while Rng.bits64 before <> next do
    incr k
  done;
  !k

let raw_outputs_per_draws ~bound ~draws =
  raw_outputs_consumed (fun g ->
      for _ = 1 to draws do
        ignore (Rng.int g bound)
      done)

let int_matches_reference_at_fixed_bounds () =
  List.iter
    (fun bound ->
      let g = Rng.create bound in
      let twin = Rng.copy g in
      let drawn = Array.init 1000 (fun _ -> Rng.int g bound) in
      let expected = Array.init 1000 (fun _ -> int_reference twin bound) in
      Alcotest.(check (array int)) (Printf.sprintf "bound %d" bound) expected drawn;
      check_bool
        (Printf.sprintf "bound %d: same state after" bound)
        true
        (Rng.bits64 g = Rng.bits64 twin))
    int_bounds;
  List.iter
    (fun bound ->
      check_int
        (Printf.sprintf "bound %d: no output rejected" bound)
        1000
        (raw_outputs_per_draws ~bound ~draws:1000))
    [ 1000; 1024; 65535 ];
  List.iter
    (fun bound ->
      let raw = raw_outputs_per_draws ~bound ~draws:1000 in
      check_bool
        (Printf.sprintf
           "bound %d: %d outputs for 1000 draws (about half rejected)" bound raw)
        true
        (raw >= 1700 && raw <= 2300))
    [ 1 lsl 61; (1 lsl 61) + 1 ]

(* [Rng.fill_int] fuses a loop of [base + Rng.int g bound] into one
   pass over two-byte cells; it must write exactly that loop's draws in
   every cell and leave the generator where the loop does (the next raw
   output agrees), and list exactly the ascending indices whose value
   is at most [cut].  The bounds run from 1 to 65535, the most a cell
   holds, powers of two (the mask) among them. *)
let fill_bounds = [ 1; 2; 7; 1000; 1024; 4096; 65535 ]

let listed_reference a ~cut =
  Array.of_list
    (List.filter (fun i -> a.(i) <= cut) (List.init (Array.length a) Fun.id))

let cells_contents c = Array.init (Cells.length c) (fun i -> Cells.get c (2 * i))

(* [len] cells, each set to a value the fill cannot draw, so a cell it
   skipped shows. *)
let poisoned_cells ~base bound len =
  let poison = if base + bound <= Cells.max_value then base + bound else base - 1 in
  let c = Cells.create len in
  for i = 0 to len - 1 do
    Cells.unsafe_set c (2 * i) poison
  done;
  c

(* One fill and its [Rng.int] twin: the filled and looped values, the
   list the fill returned and the one the looped values call for, and
   whether the next raw outputs agree. *)
let fill_and_loop g ~base bound ~cut len =
  let twin = Rng.copy g in
  let cells = poisoned_cells ~base bound len in
  let pos, k = Rng.fill_int g ~base bound ~cut cells in
  let looped = Array.init len (fun _ -> base + Rng.int twin bound) in
  ( cells_contents cells,
    looped,
    Array.sub pos 0 k,
    listed_reference looped ~cut,
    Rng.bits64 g = Rng.bits64 twin )

(* A cut below [base] (empty list), one inside the range, and the top
   value [base + bound - 1] (every index). *)
let fill_cuts ~base bound = [ base - 1; base + (bound / 3); base + bound - 1 ]

let fill_int_matches_int_loop () =
  List.iter
    (fun bound ->
      List.iter
        (fun (seed, base, len) ->
          List.iter
            (fun cut ->
              let filled, looped, listed, expected, same_state =
                fill_and_loop (Rng.create seed) ~base bound ~cut len
              in
              let what =
                Printf.sprintf "bound %d, seed %d, base %d, cut %d, %d draws"
                  bound seed base cut len
              in
              Alcotest.(check (array int)) what looped filled;
              Alcotest.(check (array int)) (what ^ ": list") expected listed;
              check_bool (what ^ ": same state after") true same_state)
            (fill_cuts ~base bound);
          let all = Rng.fill_int (Rng.create seed) ~base bound ~cut:(base - 1) in
          check_int
            (Printf.sprintf "bound %d, %d draws: cut below base lists nothing"
               bound len)
            0
            (snd (all (Cells.create len)));
          let top = Rng.fill_int (Rng.create seed) ~base bound ~cut:(base + bound - 1) in
          check_int
            (Printf.sprintf "bound %d, %d draws: top cut lists every index"
               bound len)
            len
            (snd (top (Cells.create len))))
        [
          (1, 0, 0); (2, 1, 0); (7, 1, 1); (8, 0, 1); (42, 0, 1000);
          (43, 1, 1000); (9, 1, 4096); (10, 0, 4096);
        ])
    fill_bounds

let fill_int_rejection_and_errors () =
  List.iter
    (fun (bound, cut) ->
      check_int
        (Printf.sprintf "bound %d, cut %d: no output rejected" bound cut)
        1000
        (raw_outputs_consumed (fun g ->
             ignore (Rng.fill_int g ~base:0 bound ~cut (Cells.create 1000)))))
    [ (1000, -1); (1000, 0); (1000, 1 lsl 60); (1024, 0); (65535, 100) ];
  List.iter
    (fun bound ->
      Alcotest.check_raises
        (Printf.sprintf "bound %d" bound)
        (Invalid_argument "Rng.fill_int: bound must be positive")
        (fun () ->
          ignore (Rng.fill_int (rng ()) ~base:0 bound ~cut:0 (Cells.create 1))))
    [ 0; -1; min_int ];
  (* Every value must fit a cell: the top one, [base + bound - 1], at
     most 65535, and the base not negative. *)
  List.iter
    (fun (base, bound) ->
      Alcotest.check_raises
        (Printf.sprintf "base %d, bound %d" base bound)
        (Invalid_argument "Rng.fill_int: values must fit a cell")
        (fun () ->
          ignore (Rng.fill_int (rng ()) ~base bound ~cut:0 (Cells.create 1))))
    [
      (0, 65537); (1, 65536); (65535, 2); (65536, 1); (max_int, 1);
      (max_int, max_int); (-1, 1); (min_int, 2); (0, (1 lsl 40) + 17);
      (1, (1 lsl 61) + 1); (0, max_int);
    ];
  List.iter
    (fun (base, bound) ->
      let cells = Cells.create 64 in
      ignore (Rng.fill_int (rng ()) ~base bound ~cut:0 cells);
      check_bool
        (Printf.sprintf "base %d, bound %d fits" base bound)
        true
        (Array.for_all
           (fun v -> v >= base && v < base + bound)
           (cells_contents cells)))
    [ (0, 65536); (1, 65535); (65535, 1); (65000, 536) ];
  (* The caller owns the cells: without a list a fill allocates a
     constant (its result pair); with one, the list and the same
     constant (these fills stay inside the first capacity). *)
  let g = rng () in
  let words ~cut len =
    let c = Cells.create len in
    let (pos, _), w =
      allocated_words (fun () -> Rng.fill_int g ~base:1 1000 ~cut c)
    in
    (w, if Array.length pos = 0 then 0. else float_of_int (Array.length pos + 1))
  in
  let small, no_list = words ~cut:0 1_000 and large, _ = words ~cut:0 100_000 in
  check_bool "no list: nothing to allocate" true (no_list = 0.);
  check_bool
    (Printf.sprintf "1k fill: %.0f words (constant)" small)
    true (small <= 32.);
  check_bool
    (Printf.sprintf "100k fill: %.0f words, same as 1k" large)
    true (large <= small);
  List.iter
    (fun len ->
      let w, list = words ~cut:500 len in
      check_bool
        (Printf.sprintf "%d draws, cut at half: %.0f words = list %.0f + %.0f"
           len w list small)
        true
        (list > 0. && w = list +. small))
    [ 1_000; 100_000 ]

(* Random bounds up to the cell limit, half of them powers of two;
   [base + bound - 1] is at most 65535. *)
let fill_int_matches_loop_qc =
  qcase ~count:200 "fill_int at random bounds = int loop"
    ~print:(fun (seed, bound, len, cut) ->
      Printf.sprintf "(seed=%d, bound=%d, len=%d, cut=%d)" seed bound len cut)
    QCheck2.Gen.(
      let* seed = int in
      let* bound =
        oneof
          [
            int_range 1 Cells.max_value;
            map (fun k -> 1 lsl k) (int_range 0 16);
          ]
      in
      let bound = Stdlib.min bound (Cells.max_value + 1 - (seed land 7)) in
      let* len = int_range 0 300 in
      let* cut =
        oneof
          [
            int_range (-2) 20;
            map (fun x -> x land (bound - 1)) int;
            return (bound + 7);
          ]
      in
      return (seed, bound, len, cut))
    (fun (seed, bound, len, cut) ->
      let filled, looped, listed, expected, same_state =
        fill_and_loop (Rng.create seed) ~base:(seed land 7) bound ~cut len
      in
      filled = looped && listed = expected && same_state)

(* The first capacity [Rng.fill_int] documents: the expected count,
   rounded up, plus a sixteenth, at most [len]. *)
let first_capacity ~len ~base bound ~cut =
  if cut < base || len = 0 then 0
  else if cut - base >= bound - 1 then len
  else
    let e =
      Float.to_int
        (Float.ceil
           (float_of_int len *. float_of_int (cut - base + 1)
           /. float_of_int bound))
    in
    Stdlib.min len (e + (e lsr 4))

(* At 5 values in 1000 over 4096 draws the list starts at 22 slots
   against about 20.5 expected positions, so a good share of seeds
   outgrow it; each such fill must still equal its loop, draw for draw,
   and list every position. *)
let fill_int_list_grows () =
  let len = 4096 and bound = 1000 and base = 1 and cut = 5 in
  let first = first_capacity ~len ~base bound ~cut in
  let grown = ref 0 in
  for seed = 0 to 199 do
    let g = Rng.create seed in
    let twin = Rng.copy g in
    let pos, k = Rng.fill_int g ~base bound ~cut (Cells.create len) in
    let filled, looped, listed, expected, same_state =
      fill_and_loop twin ~base bound ~cut len
    in
    let what = Printf.sprintf "seed %d, %d listed, first capacity %d" seed k first in
    Alcotest.(check (array int)) what looped filled;
    Alcotest.(check (array int)) (what ^ ": list") expected listed;
    check_bool (what ^ ": same state after") true same_state;
    (* A list that fills up with draws left grows, whether or not
       another position comes. *)
    if k < first then
      check_int (what ^ ": first capacity kept") first (Array.length pos)
    else begin
      if k > first then incr grown;
      check_bool (what ^ ": the list holds every position") true
        (Array.length pos >= k && Array.length pos <= Stdlib.min len (4 * first))
    end
  done;
  check_bool
    (Printf.sprintf "%d of 200 fills outgrew their first capacity" !grown)
    true (!grown >= 10)

(* No fill above rejects a draw: up to the cell limit a raw output is
   rejected with probability below 2^-46.  A crafted state makes one.
   A state's output is [rotl (5 s1) 7 * 9], so [s1 = 5^-1 rotr (9^-1
   * -1) 7] (inverses mod 2^64) makes it [-1L], whose top 62 bits,
   [max_int], every bound rejects; stepping the generator backwards
   [at] times from that state puts the rejected output [at] draws in. *)
module Xoshiro = Prng.Xoshiro256

let rotr x k =
  Int64.logor (Int64.shift_right_logical x k) (Int64.shift_left x (64 - k))

let inverse5 = 0xCCCC_CCCC_CCCC_CCCDL and inverse9 = 0x8E38_E38E_38E3_8E39L

(* The xoshiro256** step run backwards: the state one step earlier.
   [s1 xor s2] is [t xor (t lsl 17)] for the earlier [s1 = t], and
   [t lsl 68 = 0] makes [y xor (y lsl 17) xor (y lsl 34) xor (y lsl 51)]
   its inverse. *)
let unstep (s0, s1, s2, s3) =
  let x3 = rotr s3 45 in
  let y = Int64.logxor s1 s2 in
  let t1 =
    List.fold_left
      (fun acc k -> Int64.logxor acc (Int64.shift_left y k))
      y [ 17; 34; 51 ]
  in
  let t0 = Int64.logxor s0 x3 in
  (t0, t1, Int64.logxor (Int64.logxor s1 t1) t0, Int64.logxor x3 t1)

let rejecting_at at =
  let s1 = Int64.mul inverse5 (rotr (Int64.mul inverse9 (-1L)) 7) in
  let rec back k s = if k = 0 then s else back (k - 1) (unstep s) in
  let s0, s1, s2, s3 =
    back at (0x5DEE_CE66DL, s1, 0x9E37_79B9_7F4A_7C15L, 42L)
  in
  Xoshiro.of_state s0 s1 s2 s3

(* [Xoshiro256.fill_in] must skip the rejected output exactly as a
   [next_in] loop on a copy does, which the Int64 rule pins in turn:
   the same cells, the same list, one raw output more than cells, and
   the same state after.  The rejection falls on the first draw, the
   second, mid-fill and the last. *)
let fill_in_rejects_as_next_in () =
  List.iter
    (fun (len, at) ->
      let premise = rejecting_at at in
      for _ = 1 to at do
        ignore (Xoshiro.next premise)
      done;
      Alcotest.(check int64)
        (Printf.sprintf "output %d of the crafted state" at)
        (-1L) (Xoshiro.next premise);
      List.iter
        (fun bound ->
          List.iter
            (fun cut ->
              let what =
                Printf.sprintf "bound %d, cut %d, %d draws, rejected at %d"
                  bound cut len at
              in
              let g = rejecting_at at in
              let twin = Xoshiro.copy g and reference = Xoshiro.copy g in
              let before = Xoshiro.copy g in
              let cells = poisoned_cells ~base:1 bound len in
              let pos, k = Xoshiro.fill_in g bound ~base:1 ~cut cells in
              let looped =
                Array.init len (fun _ -> 1 + Xoshiro.next_in twin bound)
              in
              let expected =
                Array.init len (fun _ ->
                    1 + int_reference_of (fun () -> Xoshiro.next reference) bound)
              in
              Alcotest.(check (array int)) (what ^ ": next_in = Int64 rule")
                expected looped;
              Alcotest.(check (array int)) what looped (cells_contents cells);
              Alcotest.(check (array int)) (what ^ ": list")
                (listed_reference looped ~cut) (Array.sub pos 0 k);
              let next = Xoshiro.next g in
              check_bool (what ^ ": same state after") true
                (Xoshiro.next twin = next && Xoshiro.next reference = next);
              let raw = ref 0 in
              while Xoshiro.next before <> next do
                incr raw
              done;
              check_int (what ^ ": raw outputs") (len + 1) !raw)
            [ 0; 6; 1 + (bound / 3); bound ])
        [ 1; 1000; 1024; 65535 ])
    [ (1, 0); (1000, 0); (1000, 1); (1000, 500); (1000, 999); (4096, 2048) ]

(* The derived-label hash rolls 10^10 labels in a full E23 run; like
   the draws above, a roll must not box its int64 chain. *)
let label_rolls_allocate_nothing () =
  let d = Implicit.Labels.make ~seed:42L ~a:1000 ~r:3 in
  let rolls count () =
    for i = 1 to count do
      ignore (Sys.opaque_identity (Implicit.Labels.roll d ~edge:i ~k:0));
      ignore (Sys.opaque_identity (Implicit.Labels.roll d ~edge:i ~k:2))
    done
  in
  let (), small = allocated_words (rolls 1_000) in
  let (), large = allocated_words (rolls 100_000) in
  check_bool
    (Printf.sprintf "1k rolls: %.0f words (constant)" small)
    true (small <= 32.);
  check_bool
    (Printf.sprintf "100k rolls: %.0f words, same as 1k" large)
    true (large <= small +. 4.)

(* --------------------------------------------------------------- *)
(* Sample *)

let sorted_copy a =
  let c = Array.copy a in
  Array.sort compare c;
  c

let shuffle_is_permutation =
  qcase "shuffle preserves the multiset" ~print:(fun l ->
      String.concat "," (List.map string_of_int l))
    QCheck2.Gen.(list_size (int_range 0 30) (int_range 0 100))
    (fun l ->
      let a = Array.of_list l in
      Sample.shuffle (rng ()) a;
      sorted_copy a = sorted_copy (Array.of_list l))

let permutation_is_permutation =
  qcase "permutation of 0..n-1" ~print:string_of_int
    QCheck2.Gen.(int_range 1 50)
    (fun n ->
      let p = Sample.permutation (rng ~seed:n ()) n in
      sorted_copy p = Array.init n Fun.id)

let shuffle_varies () =
  let g = rng () in
  let a = Array.init 20 Fun.id in
  Sample.shuffle g a;
  check_bool "some element moved (overwhelmingly likely)" true
    (a <> Array.init 20 Fun.id)

let choose_distinct_basic () =
  let picks = Sample.choose_distinct (rng ()) ~k:5 ~n:10 in
  check_int "k picks" 5 (Array.length picks);
  let sorted = sorted_copy picks in
  Array.iteri
    (fun i v ->
      check_bool "in range" true (v >= 0 && v < 10);
      if i > 0 then check_bool "distinct" true (sorted.(i) <> sorted.(i - 1)))
    sorted

let choose_distinct_all () =
  let picks = Sample.choose_distinct (rng ()) ~k:6 ~n:6 in
  Alcotest.(check (array int)) "k = n is a permutation"
    (Array.init 6 Fun.id) (sorted_copy picks)

let choose_distinct_none () =
  check_int "k = 0" 0 (Array.length (Sample.choose_distinct (rng ()) ~k:0 ~n:5))

let choose_distinct_invalid () =
  Alcotest.check_raises "k > n"
    (Invalid_argument "Sample.choose_distinct: need 0 <= k <= n") (fun () ->
      ignore (Sample.choose_distinct (rng ()) ~k:4 ~n:3))

let geometric_support () =
  let g = rng () in
  for _ = 1 to 1000 do
    check_bool ">= 1" true (Sample.geometric g ~p:0.3 >= 1)
  done

let geometric_p1 () =
  check_int "p = 1 is always 1" 1 (Sample.geometric (rng ()) ~p:1.0)

let geometric_mean () =
  let g = rng () in
  let total = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    total := !total + Sample.geometric g ~p:0.25
  done;
  let mean = float_of_int !total /. float_of_int n in
  check_bool "mean near 1/p = 4" true (abs_float (mean -. 4.) < 0.2)

let geometric_invalid () =
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Sample.geometric: need 0 < p <= 1") (fun () ->
      ignore (Sample.geometric (rng ()) ~p:0.))

let binomial_bounds () =
  let g = rng () in
  for _ = 1 to 500 do
    let v = Sample.binomial g ~n:20 ~p:0.4 in
    check_bool "0 <= v <= n" true (v >= 0 && v <= 20)
  done

let binomial_extremes () =
  check_int "p=0" 0 (Sample.binomial (rng ()) ~n:50 ~p:0.);
  check_int "p=1" 50 (Sample.binomial (rng ()) ~n:50 ~p:1.);
  check_int "n=0" 0 (Sample.binomial (rng ()) ~n:0 ~p:0.5)

let binomial_mean () =
  let g = rng () in
  let total = ref 0 in
  for _ = 1 to 5000 do
    total := !total + Sample.binomial g ~n:10 ~p:0.3
  done;
  let mean = float_of_int !total /. 5000. in
  check_bool "mean near np = 3" true (abs_float (mean -. 3.) < 0.15)

let zipf_range () =
  let g = rng () in
  let cache = Sample.Zipf_cache.create ~s:1.2 ~n:30 in
  for _ = 1 to 500 do
    let v = Sample.Zipf_cache.draw cache g in
    check_bool "in {1..30}" true (v >= 1 && v <= 30)
  done

let zipf_head_heavy () =
  let cache = Sample.Zipf_cache.create ~s:1.5 ~n:50 in
  let g = rng () in
  let ones = ref 0 and fifties = ref 0 in
  for _ = 1 to 5000 do
    match Sample.Zipf_cache.draw cache g with
    | 1 -> incr ones
    | 50 -> incr fifties
    | _ -> ()
  done;
  check_bool "mass decreasing in rank" true (!ones > !fifties)

(* --------------------------------------------------------------- *)
(* Dist *)

let dist_uniform_range () =
  let sampler = Dist.Sampler.create Uniform ~a:9 in
  let g = rng () in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    let v = Dist.Sampler.draw sampler g in
    check_bool "in {1..9}" true (v >= 1 && v <= 9);
    seen.(v) <- true
  done;
  for i = 1 to 9 do
    check_bool "every label reachable" true seen.(i)
  done

let dist_geometric_truncated () =
  let sampler = Dist.Sampler.create (Geometric 0.1) ~a:5 in
  let g = rng () in
  for _ = 1 to 2000 do
    let v = Dist.Sampler.draw sampler g in
    check_bool "truncated to {1..5}" true (v >= 1 && v <= 5)
  done

let dist_zipf_range () =
  let sampler = Dist.Sampler.create (Zipf 1.0) ~a:7 in
  let g = rng () in
  for _ = 1 to 500 do
    let v = Dist.Sampler.draw sampler g in
    check_bool "in {1..7}" true (v >= 1 && v <= 7)
  done

let dist_point_clamped () =
  let g = rng () in
  check_int "point within" 3 (Dist.draw (Point 3) ~a:10 g);
  check_int "point clamped high" 10 (Dist.draw (Point 99) ~a:10 g);
  check_int "point clamped low" 1 (Dist.draw (Point (-2)) ~a:10 g)

let dist_names () =
  Alcotest.(check string) "uniform" "uniform" (Dist.to_string Uniform);
  Alcotest.(check string) "point" "point(4)" (Dist.to_string (Point 4));
  Alcotest.(check string) "zipf" "zipf(1.5)" (Dist.to_string (Zipf 1.5))

let dist_invalid_lifetime () =
  Alcotest.check_raises "a = 0"
    (Invalid_argument "Dist.Sampler.create: lifetime must be positive")
    (fun () -> ignore (Dist.Sampler.create Uniform ~a:0))

let suites =
  [
    ( "prng.core",
      [
        case "splitmix deterministic" splitmix_deterministic;
        case "splitmix copy replays" splitmix_copy_replays;
        case "splitmix seeds differ" splitmix_seeds_differ;
        case "splitmix next_in bounds" splitmix_next_in_bounds;
        case "splitmix next_in invalid" splitmix_next_in_invalid;
        case "xoshiro deterministic" xoshiro_deterministic;
        case "xoshiro zero state rejected" xoshiro_zero_state_rejected;
        case "xoshiro jump diverges" xoshiro_jump_diverges;
        case "rng int bounds" rng_int_bounds;
        case "rng int invalid" rng_int_invalid;
        case "rng int covers range" rng_int_covers_range;
        case "rng int_in" rng_int_in;
        case "rng int_in singleton" rng_int_in_singleton;
        case "rng int_in invalid" rng_int_in_invalid;
        case "rng float range" rng_float_range;
        case "rng float mean" rng_float_mean;
        case "rng bool balanced" rng_bool_both;
        case "rng bernoulli extremes" rng_bernoulli_extremes;
        case "rng split independent" rng_split_independent;
        case "rng split reproducible" rng_split_reproducible;
        case "rng split_n" rng_split_n;
        split_n_interleaving_independent;
        case "rng copy replays" rng_copy_replays;
      ] );
    ( "prng.pinned",
      [
        case "xoshiro known answer" xoshiro_known_answer;
        case "xoshiro jump" xoshiro_jump_pinned;
        case "rng copy" rng_copy_pinned;
        case "rng split" rng_split_pinned;
        case "rng int and bool" rng_draws_pinned;
        rng_matches_int64_reference;
        case "draws allocate nothing" rng_draws_allocate_nothing;
        case "int at fixed bounds = Int64 reference"
          int_matches_reference_at_fixed_bounds;
        case "fill_int at fixed bounds = int loop" fill_int_matches_int_loop;
        fill_int_matches_loop_qc;
        case "fill_int rejection rate and errors" fill_int_rejection_and_errors;
        case "fill_int list outgrows its first capacity" fill_int_list_grows;
        case "fill_in rejects as next_in (crafted state)"
          fill_in_rejects_as_next_in;
        case "label rolls allocate nothing" label_rolls_allocate_nothing;
      ] );
    ( "prng.sample",
      [
        shuffle_is_permutation;
        permutation_is_permutation;
        case "shuffle varies" shuffle_varies;
        case "choose_distinct basic" choose_distinct_basic;
        case "choose_distinct all" choose_distinct_all;
        case "choose_distinct none" choose_distinct_none;
        case "choose_distinct invalid" choose_distinct_invalid;
        case "geometric support" geometric_support;
        case "geometric p = 1" geometric_p1;
        case "geometric mean" geometric_mean;
        case "geometric invalid" geometric_invalid;
        case "binomial bounds" binomial_bounds;
        case "binomial extremes" binomial_extremes;
        case "binomial mean" binomial_mean;
        case "zipf range" zipf_range;
        case "zipf head heavy" zipf_head_heavy;
      ] );
    ( "prng.dist",
      [
        case "uniform range and coverage" dist_uniform_range;
        case "geometric truncated" dist_geometric_truncated;
        case "zipf range" dist_zipf_range;
        case "point clamped" dist_point_clamped;
        case "names" dist_names;
        case "invalid lifetime" dist_invalid_lifetime;
      ] );
  ]
