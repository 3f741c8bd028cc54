(* Unit tests for the utility substrate: PRNG determinism and ranges,
   statistics, float comparison, tables and plots. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_prng_deterministic () =
  let a = Util.Prng.create 123 and b = Util.Prng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Prng.bits64 a) (Util.Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  checkb "different seeds differ" false (Util.Prng.bits64 a = Util.Prng.bits64 b)

let test_prng_int_range () =
  let g = Util.Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.int g 13 in
    checkb "int in range" true (v >= 0 && v < 13)
  done

let test_prng_int_covers () =
  let g = Util.Prng.create 9 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    seen.(Util.Prng.int g 5) <- true
  done;
  checkb "all residues hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let g = Util.Prng.create 11 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.float g 2.5 in
    checkb "float in range" true (v >= 0. && v < 2.5)
  done

let test_prng_float_range_lo_hi () =
  let g = Util.Prng.create 12 in
  for _ = 1 to 1_000 do
    let v = Util.Prng.float_range g ~lo:(-3.) ~hi:(-1.) in
    checkb "in [-3, -1)" true (v >= -3. && v < -1.)
  done

let test_prng_split_independent () =
  let g = Util.Prng.create 5 in
  let child = Util.Prng.split g in
  checkb "child differs from parent continuation" false
    (Util.Prng.bits64 child = Util.Prng.bits64 g)

let test_prng_copy () =
  let g = Util.Prng.create 99 in
  ignore (Util.Prng.bits64 g);
  let c = Util.Prng.copy g in
  check Alcotest.int64 "copy resumes identically" (Util.Prng.bits64 g) (Util.Prng.bits64 c)

let test_prng_gaussian_moments () =
  let g = Util.Prng.create 21 in
  let xs = Array.init 20_000 (fun _ -> Util.Prng.gaussian g ~mu:2. ~sigma:0.5) in
  checkb "mean near 2" true (Float.abs (Util.Stats.mean xs -. 2.) < 0.02);
  checkb "std near 0.5" true (Float.abs (Util.Stats.stddev xs -. 0.5) < 0.02)

let test_prng_exponential_positive () =
  let g = Util.Prng.create 22 in
  for _ = 1 to 1_000 do
    checkb "positive" true (Util.Prng.exponential g ~rate:2. > 0.)
  done

let test_prng_shuffle_permutation () =
  let g = Util.Prng.create 31 in
  let a = Array.init 50 Fun.id in
  Util.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 Fun.id) sorted

let test_stats_mean () = checkf "mean" 2.5 (Util.Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_stddev () =
  checkf "stddev of constants" 0. (Util.Stats.stddev [| 3.; 3.; 3. |]);
  checkf "stddev" 2. (Util.Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_stats_minmax () =
  checkf "min" 1. (Util.Stats.minimum [| 3.; 1.; 2. |]);
  checkf "max" 3. (Util.Stats.maximum [| 3.; 1.; 2. |])

let test_stats_quantile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  checkf "median" 3. (Util.Stats.median xs);
  checkf "q0" 1. (Util.Stats.quantile xs 0.);
  checkf "q1" 5. (Util.Stats.quantile xs 1.);
  checkf "q .25" 2. (Util.Stats.quantile xs 0.25)

let test_stats_quantile_no_mutation () =
  let xs = [| 3.; 1.; 2. |] in
  ignore (Util.Stats.median xs);
  check Alcotest.(array (float 0.)) "input untouched" [| 3.; 1.; 2. |] xs

let test_stats_std_error () =
  checkf "sem of constants" 0. (Util.Stats.std_error [| 5.; 5.; 5.; 5. |]);
  (* stddev = 2, n = 4 -> sem = 1. *)
  checkf "sem" 1. (Util.Stats.std_error [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] *. sqrt 2.);
  checkb "nan on empty" true (Float.is_nan (Util.Stats.std_error [||]))

let test_stats_ci95 () =
  let mean, half = Util.Stats.mean_ci95 [| 1.; 2.; 3. |] in
  checkf "mean" 2. mean;
  checkb "half-width positive" true (half > 0.)

let test_stats_geomean () =
  checkf "geometric mean" 2. (Util.Stats.geometric_mean [| 1.; 2.; 4. |]);
  checkb "nan on non-positive" true
    (Float.is_nan (Util.Stats.geometric_mean [| 1.; 0. |]))

let test_float_close () =
  checkb "equal" true (Util.Float_cmp.close 1. 1.);
  checkb "near" true (Util.Float_cmp.close 1. (1. +. 1e-12));
  checkb "far" false (Util.Float_cmp.close 1. 1.1);
  checkb "infinities equal" true (Util.Float_cmp.close infinity infinity);
  checkb "inf vs finite" false (Util.Float_cmp.close infinity 1.);
  checkb "nan" false (Util.Float_cmp.close Float.nan Float.nan)

let test_float_le_ge () =
  checkb "le strict" true (Util.Float_cmp.le 1. 2.);
  checkb "le tolerant" true (Util.Float_cmp.le (1. +. 1e-12) 1.);
  checkb "le false" false (Util.Float_cmp.le 2. 1.);
  checkb "ge" true (Util.Float_cmp.ge 2. 1.)

let test_float_clamp () =
  checkf "below" 0. (Util.Float_cmp.clamp ~lo:0. ~hi:1. (-3.));
  checkf "above" 1. (Util.Float_cmp.clamp ~lo:0. ~hi:1. 3.);
  checkf "inside" 0.5 (Util.Float_cmp.clamp ~lo:0. ~hi:1. 0.5)

let test_table_render () =
  let t = Util.Table.create ~header:[ "name"; "value" ] in
  Util.Table.add_row t [ "alpha"; "1" ];
  Util.Table.add_row t [ "b"; "22" ];
  let s = Util.Table.render t in
  checkb "has header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "4 lines" 4 (List.length lines);
  (* All lines share the same width. *)
  let widths = List.map String.length lines in
  checkb "aligned" true (List.for_all (( = ) (List.hd widths)) widths)

let test_table_row_padding () =
  let t = Util.Table.create ~header:[ "a"; "b"; "c" ] in
  Util.Table.add_row t [ "only-one" ];
  Util.Table.add_row t [ "1"; "2"; "3"; "4 (extra)" ];
  let s = Util.Table.render t in
  checkb "renders without exception" true (String.length s > 0)

let test_table_float_row () =
  let t = Util.Table.create ~header:[ "label"; "x" ] in
  let t = Util.Table.add_float_row t "row" [ 1.23456789 ] in
  let s = Util.Table.render t in
  checkb "formatted" true
    (String.length s > 0
    && String.index_opt s '1' <> None)

let test_table_to_csv () =
  let t = Util.Table.create ~header:[ "a"; "b" ] in
  Util.Table.add_row t [ "1"; "x,y" ];
  Util.Table.add_row t [ "2"; "plain" ];
  Alcotest.(check string) "csv" "a,b\n1,\"x,y\"\n2,plain\n" (Util.Table.to_csv t)

let test_table_fmt_float () =
  check Alcotest.string "inf" "inf" (Util.Table.fmt_float infinity);
  check Alcotest.string "-inf" "-inf" (Util.Table.fmt_float neg_infinity);
  check Alcotest.string "nan" "nan" (Util.Table.fmt_float Float.nan)

let test_plot_step_series () =
  let s =
    Util.Ascii_plot.step_series
      [ { Util.Ascii_plot.label = "x"; glyph = '#'; values = [| 1; 2; 3; 2; 0 |] } ]
  in
  checkb "non-empty" true (String.length s > 0);
  checkb "contains glyph" true (String.contains s '#');
  checkb "contains legend" true (String.length s > 10)

let test_plot_two_series_overlay () =
  let s =
    Util.Ascii_plot.step_series
      [ { Util.Ascii_plot.label = "a"; glyph = '.'; values = [| 3; 3 |] };
        { Util.Ascii_plot.label = "b"; glyph = 'o'; values = [| 1; 1 |] } ]
  in
  checkb "later series visible" true (String.contains s 'o');
  checkb "earlier series visible above" true (String.contains s '.')

let test_plot_sparkline () =
  let s = Util.Ascii_plot.sparkline [| 0.; 1.; 2. |] in
  check Alcotest.int "one cell per point" 3 (String.length s);
  check Alcotest.string "all-zero input" "   " (Util.Ascii_plot.sparkline [| 0.; 0.; 0. |])

let test_svg_structure () =
  let svg =
    Util.Svg.step_plot ~title:"demo <plot>"
      [ Util.Svg.int_series ~label:"a & b" [| 0; 2; 1 |];
        { Util.Svg.label = "floats"; color = Some "#123456"; values = [| 0.5; 1.5 |] } ]
  in
  checkb "opens svg" true (String.length svg > 100);
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length svg then acc
      else if String.sub svg i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  checkb "one path per series" true (count "<path" = 2);
  checkb "title escaped" true (count "&lt;plot&gt;" = 1);
  checkb "label escaped" true (count "a &amp; b" = 1);
  checkb "closes" true (count "</svg>" = 1);
  checkb "custom colour used" true (count "#123456" >= 1)

let test_svg_empty_series () =
  let svg = Util.Svg.step_plot ~title:"empty" [] in
  checkb "still a document" true (String.length svg > 50)

let () =
  Alcotest.run "util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic streams" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int covers residues" `Quick test_prng_int_covers;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float lo/hi range" `Quick test_prng_float_range_lo_hi;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "exponential positive" `Quick test_prng_exponential_positive;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation
        ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "quantiles" `Quick test_stats_quantile;
          Alcotest.test_case "quantile does not mutate" `Quick test_stats_quantile_no_mutation;
          Alcotest.test_case "standard error" `Quick test_stats_std_error;
          Alcotest.test_case "95% CI" `Quick test_stats_ci95;
          Alcotest.test_case "geometric mean" `Quick test_stats_geomean
        ] );
      ( "float_cmp",
        [ Alcotest.test_case "close" `Quick test_float_close;
          Alcotest.test_case "le/ge" `Quick test_float_le_ge;
          Alcotest.test_case "clamp" `Quick test_float_clamp
        ] );
      ( "table",
        [ Alcotest.test_case "render alignment" `Quick test_table_render;
          Alcotest.test_case "row padding/truncation" `Quick test_table_row_padding;
          Alcotest.test_case "float rows" `Quick test_table_float_row;
          Alcotest.test_case "csv rendering" `Quick test_table_to_csv;
          Alcotest.test_case "special float formatting" `Quick test_table_fmt_float
        ] );
      ( "svg",
        [ Alcotest.test_case "structure and escaping" `Quick test_svg_structure;
          Alcotest.test_case "empty series" `Quick test_svg_empty_series
        ] );
      ( "ascii_plot",
        [ Alcotest.test_case "step series" `Quick test_plot_step_series;
          Alcotest.test_case "series overlay" `Quick test_plot_two_series_overlay;
          Alcotest.test_case "sparkline" `Quick test_plot_sparkline
        ] )
    ]
