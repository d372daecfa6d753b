(* Tests for lib/stats. *)

open Helpers
module Summary = Stats.Summary
module Quantile = Stats.Quantile
module Histogram = Stats.Histogram
module Ci = Stats.Ci
module Regression = Stats.Regression
module Bounds = Stats.Bounds
module Table = Stats.Table

(* --------------------------------------------------------------- *)
(* Summary *)

let summary_empty () =
  let s = Summary.create () in
  check_int "count" 0 (Summary.count s);
  check_bool "mean nan" true (Float.is_nan (Summary.mean s));
  check_bool "min nan" true (Float.is_nan (Summary.min s));
  check_float "variance" 0. (Summary.variance s)

let summary_single () =
  let s = Summary.of_array [| 3.5 |] in
  check_float "mean" 3.5 (Summary.mean s);
  check_float "variance" 0. (Summary.variance s);
  check_float "min" 3.5 (Summary.min s);
  check_float "max" 3.5 (Summary.max s)

let summary_known () =
  let s = Summary.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Summary.mean s);
  check_float ~eps:1e-9 "sample variance" 4.571428571428571 (Summary.variance s);
  check_float "min" 2. (Summary.min s);
  check_float "max" 9. (Summary.max s);
  check_int "count" 8 (Summary.count s)

let summary_add_int () =
  let s = Summary.create () in
  List.iter (Summary.add_int s) [ 1; 2; 3 ];
  check_float "mean" 2. (Summary.mean s)

let summary_stderr () =
  let s = Summary.of_array [| 1.; 2.; 3.; 4. |] in
  check_float ~eps:1e-9 "stderr = sd/sqrt n"
    (Summary.stddev s /. 2.)
    (Summary.stderr_mean s)

let summary_matches_naive =
  qcase "summary matches two-pass formulas"
    ~print:(fun l -> String.concat "," (List.map string_of_float l))
    QCheck2.Gen.(list_size (int_range 2 40) (float_bound_inclusive 100.))
    (fun l ->
      let xs = Array.of_list l in
      let s = Summary.of_array xs in
      let n = float_of_int (Array.length xs) in
      let mean = Array.fold_left ( +. ) 0. xs /. n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
        /. (n -. 1.)
      in
      abs_float (Summary.mean s -. mean) < 1e-6
      && abs_float (Summary.variance s -. var) < 1e-6)

(* --------------------------------------------------------------- *)
(* Quantile *)

let quantile_known () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "q0" 1. (Quantile.quantile xs 0.);
  check_float "q1" 4. (Quantile.quantile xs 1.);
  check_float "median interpolates" 2.5 (Quantile.median xs);
  check_float "q0.25" 1.75 (Quantile.quantile xs 0.25)

let quantile_single () =
  check_float "single point" 7. (Quantile.quantile [| 7. |] 0.3)

let quantile_unsorted_input () =
  check_float "copy is sorted internally" 2.5
    (Quantile.median [| 4.; 1.; 3.; 2. |])

let quantile_errors () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Quantile.of_sorted: empty sample") (fun () ->
      ignore (Quantile.quantile [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile.of_sorted: q not in [0,1]") (fun () ->
      ignore (Quantile.quantile [| 1. |] 1.5))

let quantile_iqr () =
  let xs = Array.init 101 float_of_int in
  check_float "iqr of 0..100" 50.
    (Quantile.quantile xs 0.75 -. Quantile.quantile xs 0.25)

let quantile_many () =
  let xs = [| 10.; 20.; 30. |] in
  let result = List.map (fun q -> (q, Quantile.quantile xs q)) [ 0.; 0.5; 1. ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "three quantiles"
    [ (0., 10.); (0.5, 20.); (1., 30.) ]
    result

let quantile_monotone =
  qcase "quantiles are monotone in q"
    ~print:(fun l -> String.concat "," (List.map string_of_float l))
    QCheck2.Gen.(list_size (int_range 1 30) (float_bound_inclusive 50.))
    (fun l ->
      let xs = Array.of_list l in
      Quantile.quantile xs 0.2 <= Quantile.quantile xs 0.8)

(* --------------------------------------------------------------- *)
(* Histogram *)

(* The tallies as [render] prints them: one "[lo, hi) count bar" row per
   bin, then the out-of-range lines. *)
let histogram_counts () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Histogram.add h) [ 0.5; 1.; 3.; 9.9; 10. ];
  Histogram.add h (-1.);
  Histogram.add h 11.;
  let lines = String.split_on_char '\n' (Histogram.render h) in
  let bin_count line =
    let after = String.index line ')' + 1 in
    Scanf.sscanf (String.sub line after (String.length line - after)) " %d"
      Fun.id
  in
  Alcotest.(check (list int)) "bin counts" [ 2; 1; 0; 0; 2 ]
    (List.filter_map
       (fun l -> if String.starts_with ~prefix:"[" l then Some (bin_count l) else None)
       lines);
  check_bool "underflow" true (List.mem "underflow 1" lines);
  check_bool "overflow" true (List.mem "overflow 1" lines)

let histogram_edges () =
  let h = Histogram.create ~lo:0. ~hi:1. ~bins:2 in
  let edges = Histogram.bin_edges h in
  check_float "first lo" 0. (fst edges.(0));
  check_float "first hi" 0.5 (snd edges.(0));
  check_float "second hi" 1. (snd edges.(1))

let histogram_render () =
  let h = Histogram.create ~lo:0. ~hi:1. ~bins:2 in
  Histogram.add h 0.25;
  let s = Histogram.render h in
  check_bool "render mentions a bar" true (String.length s > 0)

let histogram_invalid () =
  Alcotest.check_raises "bins 0"
    (Invalid_argument "Histogram.create: bins must be positive") (fun () ->
      ignore (Histogram.create ~lo:0. ~hi:1. ~bins:0));
  Alcotest.check_raises "hi <= lo"
    (Invalid_argument "Histogram.create: need hi > lo") (fun () ->
      ignore (Histogram.create ~lo:1. ~hi:1. ~bins:2))

(* --------------------------------------------------------------- *)
(* Ci *)

let ci_z_values () =
  check_float ~eps:1e-6 "z95" 1.9599639845 (Ci.z_of_confidence 0.95);
  check_float ~eps:1e-6 "z99" 2.5758293035 (Ci.z_of_confidence 0.99);
  check_float ~eps:1e-3 "generic level via quantile" 1.9599639845
    (Ci.z_of_confidence 0.9500001)

let ci_z_invalid () =
  Alcotest.check_raises "confidence out of range"
    (Invalid_argument "Ci.z_of_confidence: confidence must be in (0,1)")
    (fun () -> ignore (Ci.z_of_confidence 1.5))

let ci_wilson_known () =
  let iv = Ci.wilson ~trials:10 5 in
  check_bool "contains p hat" true (iv.lo < 0.5 && 0.5 < iv.hi);
  check_bool "within [0,1]" true (iv.lo >= 0. && iv.hi <= 1.)

let ci_wilson_extremes () =
  let zero = Ci.wilson ~trials:20 0 in
  check_float ~eps:1e-9 "0 successes: lo = 0" 0. zero.lo;
  check_bool "0 successes: hi > 0" true (zero.hi > 0.);
  let full = Ci.wilson ~trials:20 20 in
  check_float ~eps:1e-9 "all successes: hi = 1" 1. full.hi;
  check_bool "all successes: lo < 1" true (full.lo < 1.)

let ci_wilson_invalid () =
  Alcotest.check_raises "trials 0"
    (Invalid_argument "Ci.wilson: trials must be positive") (fun () ->
      ignore (Ci.wilson ~trials:0 0));
  Alcotest.check_raises "successes out of range"
    (Invalid_argument "Ci.wilson: successes out of range") (fun () ->
      ignore (Ci.wilson ~trials:5 6))

let ci_wilson_narrows =
  qcase "wilson narrows with more trials" ~print:string_of_int
    QCheck2.Gen.(int_range 10 200)
    (fun trials ->
      let narrow = Ci.wilson ~trials:(trials * 4) (trials * 2) in
      let wide = Ci.wilson ~trials (trials / 2) in
      narrow.hi -. narrow.lo < wide.hi -. wide.lo +. 1e-9)

(* --------------------------------------------------------------- *)
(* Bootstrap *)

let bootstrap_mean_contains_truth () =
  let g = rng () in
  let xs = Array.init 200 (fun _ -> Prng.Rng.float g) in
  let iv = Stats.Bootstrap.mean_interval g xs in
  check_bool "interval around 0.5" true (iv.lo < 0.5 && 0.5 < iv.hi);
  check_bool "reasonably tight" true (iv.hi -. iv.lo < 0.2)

let bootstrap_median () =
  let g = rng () in
  let xs = Array.init 101 float_of_int in
  let iv = Stats.Bootstrap.interval ~statistic:Quantile.median g xs in
  check_bool "contains the median" true (iv.lo <= 50. && 50. <= iv.hi)

let bootstrap_degenerate_sample () =
  let g = rng () in
  let iv = Stats.Bootstrap.mean_interval g [| 7.; 7.; 7. |] in
  check_float "lo" 7. iv.lo;
  check_float "hi" 7. iv.hi

let bootstrap_custom_statistic () =
  let g = rng () in
  let xs = Array.init 50 (fun i -> float_of_int (i mod 10)) in
  let iv =
    Stats.Bootstrap.interval ~statistic:(fun a -> Array.fold_left max 0. a) g xs
  in
  check_bool "max statistic near 9" true (iv.hi = 9. && iv.lo >= 8.)

let bootstrap_errors () =
  let g = rng () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Bootstrap.interval: empty sample") (fun () ->
      ignore (Stats.Bootstrap.mean_interval g [||]));
  Alcotest.check_raises "bad confidence"
    (Invalid_argument "Bootstrap.interval: confidence must be in (0,1)")
    (fun () ->
      ignore (Stats.Bootstrap.mean_interval ~confidence:1.5 g [| 1. |]));
  Alcotest.check_raises "bad resamples"
    (Invalid_argument "Bootstrap.interval: resamples must be >= 1") (fun () ->
      ignore (Stats.Bootstrap.mean_interval ~resamples:0 g [| 1. |]))

(* --------------------------------------------------------------- *)
(* Regression *)

let regression_perfect_line () =
  let fit = Regression.fit [ (1., 3.); (2., 5.); (3., 7.) ] in
  check_float ~eps:1e-9 "alpha" 1. fit.alpha;
  check_float ~eps:1e-9 "beta" 2. fit.beta;
  check_float ~eps:1e-9 "r2" 1. fit.r2

let regression_fit_log () =
  let points = List.init 6 (fun i ->
      let x = float_of_int (i + 2) in
      (x, 1.5 +. (2.5 *. log x)))
  in
  let fit = Regression.fit_log points in
  check_float ~eps:1e-6 "alpha" 1.5 fit.alpha;
  check_float ~eps:1e-6 "beta" 2.5 fit.beta

let regression_predict () =
  let fit = Regression.fit [ (0., 1.); (1., 3.) ] in
  check_float ~eps:1e-9 "predict" 5. (fit.alpha +. (fit.beta *. 2.))

let regression_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Regression.fit_arrays: need at least two points")
    (fun () -> ignore (Regression.fit [ (1., 1.) ]));
  Alcotest.check_raises "all x equal"
    (Invalid_argument "Regression.fit_arrays: all x equal") (fun () ->
      ignore (Regression.fit [ (1., 1.); (1., 2.) ]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Regression.fit_arrays: length mismatch") (fun () ->
      ignore (Regression.fit_arrays [| 1. |] [| 1.; 2. |]))

let regression_r2_bounds =
  qcase "R^2 in [0,1] on noisy data" ~print:string_of_int
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let g = rng ~seed () in
      let points =
        List.init 10 (fun i ->
            (float_of_int i, float_of_int i +. Prng.Rng.float g))
      in
      let fit = Regression.fit points in
      fit.r2 >= -1e-9 && fit.r2 <= 1. +. 1e-9)

(* --------------------------------------------------------------- *)
(* Bounds *)

let bounds_harmonic () =
  check_float "H_1" 1. (Bounds.harmonic 1);
  check_float ~eps:1e-9 "H_4" (1. +. 0.5 +. (1. /. 3.) +. 0.25)
    (Bounds.harmonic 4);
  check_float "H_0" 0. (Bounds.harmonic 0)

let bounds_thm7 () =
  check_float ~eps:1e-9 "2 d ln n" (2. *. 3. *. log 100.)
    (Bounds.thm7_labels ~diameter:3 ~n:100)

let bounds_thm5 () =
  check_float ~eps:1e-9 "(a/n) ln n" (4. *. log 32.)
    (Bounds.thm5_lower_bound ~n:32 ~a:128)

(* --------------------------------------------------------------- *)
(* Table *)

let table_fixture () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ Str "alpha"; Int 3 ];
  Table.add_row t [ Str "beta"; Float (2.5, 2) ];
  t

let table_roundtrip () =
  let t = table_fixture () in
  check_int "rows" 2 (List.length (Table.rows t));
  Alcotest.(check string) "title" "demo" (Table.title t);
  Alcotest.(check (list string)) "columns" [ "name"; "value" ]
    (Table.columns t)

let table_bad_row () =
  let t = table_fixture () in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: row has 1 cells, table has 2 columns")
    (fun () -> Table.add_row t [ Int 1 ])

let table_cells () =
  Alcotest.(check string) "int" "7" (Table.cell_to_string (Int 7));
  Alcotest.(check string) "float" "2.50" (Table.cell_to_string (Float (2.5, 2)));
  Alcotest.(check string) "pct" "12.5%" (Table.cell_to_string (Pct 0.125));
  Alcotest.(check string) "str" "x" (Table.cell_to_string (Str "x"))

let table_ascii () =
  let s = Table.to_ascii (table_fixture ()) in
  check_bool "has title" true (String.length s > 0);
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true
        (contains s needle))
    [ "demo"; "name"; "value"; "alpha"; "2.50" ]

let table_csv () =
  let t = Table.create ~title:"t" ~columns:[ "a" ] in
  Table.add_row t [ Str "x,y" ];
  Alcotest.(check string) "escaped" "a\n\"x,y\"\n" (Table.to_csv t)

let table_markdown () =
  let s = Table.to_markdown (table_fixture ()) in
  check_bool "pipes" true (contains s "| alpha | 3 |")

let table_column_floats () =
  let t = table_fixture () in
  Alcotest.(check (list (float 1e-9))) "numeric column" [ 3.; 2.5 ]
    (Table.column_floats t "value");
  Alcotest.(check (list (float 1e-9))) "string column skipped" []
    (Table.column_floats t "name");
  Alcotest.check_raises "missing column" Not_found (fun () ->
      ignore (Table.column_floats t "nope"))

(* --------------------------------------------------------------- *)
(* Ascii_plot *)

let plot_renders () =
  let s =
    Stats.Ascii_plot.render ~title:"p" [ (0., 0.); (1., 1.); (2., 4.) ]
  in
  check_bool "grid drawn" true (contains s "*");
  check_bool "title" true (contains s "p")

let plot_degenerate () =
  Alcotest.(check string) "single point is title only" "t\n"
    (Stats.Ascii_plot.render ~title:"t" [ (1., 1.) ])

let plot_series_legend () =
  let s =
    Stats.Ascii_plot.render_series ~title:"multi"
      [ ("a", [ (0., 0.); (1., 1.) ]); ("b", [ (0., 1.); (1., 0.) ]) ]
  in
  check_bool "legend for a" true (contains s "* = a");
  check_bool "legend for b" true (contains s "+ = b")

let suites =
  [
    ( "stats.summary",
      [
        case "empty" summary_empty;
        case "single" summary_single;
        case "known values" summary_known;
        case "add_int" summary_add_int;
        case "stderr" summary_stderr;
        summary_matches_naive;
      ] );
    ( "stats.quantile",
      [
        case "known" quantile_known;
        case "single" quantile_single;
        case "unsorted input" quantile_unsorted_input;
        case "errors" quantile_errors;
        case "iqr" quantile_iqr;
        case "many at once" quantile_many;
        quantile_monotone;
      ] );
    ( "stats.histogram",
      [
        case "counts" histogram_counts;
        case "edges" histogram_edges;
        case "render" histogram_render;
        case "invalid" histogram_invalid;
      ] );
    ( "stats.ci",
      [
        case "z values" ci_z_values;
        case "z invalid" ci_z_invalid;
        case "wilson known" ci_wilson_known;
        case "wilson extremes" ci_wilson_extremes;
        case "wilson invalid" ci_wilson_invalid;
        ci_wilson_narrows;
      ] );
    ( "stats.bootstrap",
      [
        case "mean contains truth" bootstrap_mean_contains_truth;
        case "median" bootstrap_median;
        case "degenerate sample" bootstrap_degenerate_sample;
        case "custom statistic" bootstrap_custom_statistic;
        case "errors" bootstrap_errors;
      ] );
    ( "stats.regression",
      [
        case "perfect line" regression_perfect_line;
        case "fit_log" regression_fit_log;
        case "predict" regression_predict;
        case "errors" regression_errors;
        regression_r2_bounds;
      ] );
    ( "stats.bounds",
      [
        case "harmonic" bounds_harmonic;
        case "thm7" bounds_thm7;
        case "thm5" bounds_thm5;
      ] );
    ( "stats.table",
      [
        case "roundtrip" table_roundtrip;
        case "bad row" table_bad_row;
        case "cells" table_cells;
        case "ascii" table_ascii;
        case "csv escaping" table_csv;
        case "markdown" table_markdown;
        case "column_floats" table_column_floats;
      ] );
    ( "stats.plot",
      [
        case "renders" plot_renders;
        case "degenerate" plot_degenerate;
        case "series legend" plot_series_legend;
      ] );
  ]
