(* Order statistics over per-operation populations. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Median of a non-empty population (mean of the two middle values when
   the count is even). *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Pstats.median: empty population"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

type hi = {
  value : float;
  percentile : float;  (** in [0, 100) *)
  samples : int;  (** population size *)
  beyond : int;  (** samples ranked above [value] *)
}

let min_beyond = 10

(* The highest percentile that still has at least [min_beyond] samples
   beyond it: in the ascending order, the sample at rank n - 10
   (1-based), i.e. percentile 100 (n - 10) / n.  Past that rank fewer
   than ten samples remain, and a tail read from fewer is one
   scheduler hiccup.  [None] when the population has no such sample
   (n <= 10). *)
let hi_percentile a =
  let n = Array.length a in
  if n <= min_beyond then None
  else begin
    let s = sorted a in
    let rank = n - min_beyond in
    Some
      {
        value = s.(rank - 1);
        percentile = 100. *. float_of_int rank /. float_of_int n;
        samples = n;
        beyond = min_beyond;
      }
  end

(* The rule applied to each segment, and the median segment: one slow
   stretch of a run moves a few segments, not the result.  Every
   segment must hold more than [min_beyond] samples. *)
let median_hi segments =
  match List.filter_map hi_percentile segments with
  | [] -> None
  | his ->
    let med f = median (Array.of_list (List.map f his)) in
    Some
      {
        value = med (fun h -> h.value);
        percentile = med (fun h -> h.percentile);
        samples = List.fold_left (fun acc h -> acc + h.samples) 0 his;
        beyond = min_beyond;
      }

(* Served runs hold hundreds of thousands of operations, and their
   rarest ten are whatever the shared host did at that moment: over a
   whole 20 s run that percentile (p99.99) moved by 2x between runs of
   the same code.  So the rule is applied per segment of [segment]
   consecutive operations of one connection (percentile 90 at 100). *)
let segment = 100

let segmented_hi populations =
  median_hi
    (List.concat_map
       (fun a -> List.init (Array.length a / segment) (fun k -> Array.sub a (k * segment) segment))
       populations)

(* Throughput of closed loops: each loop's rate is one over its median
   cycle, the interval between consecutive completions ([ends], one
   array of completion times per loop); the loops' rates add.  The
   median, not the mean, because the shared host stalls a loop for
   milliseconds at a time, and those stalls set the mean. *)
let closed_loop_rate loops =
  List.fold_left
    (fun acc ends ->
      let n = Array.length ends in
      if n < 2 then invalid_arg "Pstats.closed_loop_rate: fewer than two completions";
      acc +. (1. /. median (Array.init (n - 1) (fun i -> ends.(i + 1) -. ends.(i)))))
    0. loops
