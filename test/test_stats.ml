(* Tests for histograms, summaries, and report formatting. *)

open Leed_stats

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "mean" 0. (Histogram.mean h);
  Alcotest.(check (float 0.)) "p99" 0. (Histogram.percentile h 0.99)

let test_histogram_single () =
  let h = Histogram.create () in
  Histogram.record h 0.5;
  Alcotest.(check int) "count" 1 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 0.5 (Histogram.mean h);
  Alcotest.(check (float 0.01)) "median" 0.5 (Histogram.median h);
  Alcotest.(check (float 1e-9)) "min" 0.5 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 0.5 (Histogram.max_value h)

let test_histogram_percentiles () =
  let h = Histogram.create ~precision:0.001 () in
  for i = 1 to 1000 do
    Histogram.record h (float_of_int i)
  done;
  let check q expect =
    let v = Histogram.percentile h q in
    if abs_float (v -. expect) /. expect > 0.01 then
      Alcotest.failf "p%.3f: expected ~%g, got %g" q expect v
  in
  check 0.5 500.;
  check 0.9 900.;
  check 0.99 990.;
  check 1.0 1000.

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record a (float_of_int i)
  done;
  for i = 101 to 200 do
    Histogram.record b (float_of_int i)
  done;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "count" 200 (Histogram.count a);
  Alcotest.(check (float 1.)) "max" 200. (Histogram.max_value a);
  Alcotest.(check (float 1e-9)) "min" 1. (Histogram.min_value a)

let test_histogram_negative_rejected () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.record: negative value") (fun () ->
      Histogram.record h (-1.))

let histogram_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in q" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_bound_inclusive 1000.))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ] in
      let ps = List.map (Histogram.percentile h) qs in
      let rec mono = function a :: (b :: _ as rest) -> a <= b && mono rest | _ -> true in
      mono ps)

let histogram_percentile_bounds =
  QCheck.Test.make ~name:"percentile within [min, max*(1+precision)]" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_bound_inclusive 1000.))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      let p50 = Histogram.percentile h 0.5 in
      p50 >= Histogram.min_value h *. 0.99 -. 1e-9 && p50 <= Histogram.max_value h +. 1e-9)

(* [percentile] starts its walk at the lowest occupied bucket; it must
   agree bit for bit with a walk from bucket 0 after any mix of records
   (some at or below the 1 ns floor, some with [~count > 1]), merges
   (which may grow the bucket array) and resets. *)
let histogram_percentile_matches_scan =
  QCheck.Test.make ~name:"percentile equals a full scan from bucket 0" ~count:200
    QCheck.(list (triple (int_bound 8) (float_bound_inclusive 1e-3) (int_range 1 5)))
    (fun ops ->
      let h = Histogram.create () in
      let qs = [ 0.; 0.001; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ] in
      let agree () =
        List.for_all
          (fun q ->
            Int64.equal
              (Int64.bits_of_float (Histogram.percentile h q))
              (Int64.bits_of_float (Histogram.percentile_scan h q)))
          qs
      in
      List.for_all
        (fun (op, v, count) ->
          (* every third value lands at or below the floor: bucket 0 *)
          let v = if op mod 3 = 0 then v *. 1e-6 else v in
          (match op with
          | 8 -> Histogram.reset h
          | 6 | 7 ->
              let src = Histogram.create () in
              Histogram.record ~count src v;
              Histogram.record src (v *. 3.);
              Histogram.merge ~into:h src
          | _ -> Histogram.record ~count h v);
          agree ())
        ops)

let histogram_mean_matches_list =
  QCheck.Test.make ~name:"histogram mean is exact" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 100.))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      let expect = List.fold_left ( +. ) 0. values /. float_of_int (List.length values) in
      abs_float (Histogram.mean h -. expect) < 1e-6)

let test_summary () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (32. /. 7.)) (Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2. (Summary.min_value s);
  Alcotest.(check (float 1e-9)) "max" 9. (Summary.max_value s);
  Summary.reset s;
  Alcotest.(check int) "reset count" 0 (Summary.count s)

let summary_mean_bounds =
  QCheck.Test.make ~name:"summary mean within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 1000.))
    (fun values ->
      QCheck.assume (values <> []);
      let s = Summary.create () in
      List.iter (Summary.add s) values;
      Summary.mean s >= Summary.min_value s -. 1e-9 && Summary.mean s <= Summary.max_value s +. 1e-9)

let test_report_formats () =
  Alcotest.(check string) "f1" "3.1" (Report.f1 3.14159);
  Alcotest.(check string) "pct" "42.0%" (Report.pct 0.42);
  Alcotest.(check string) "usec" "116.5" (Report.usec 116.5e-6);
  Alcotest.(check string) "kqps" "860.0" (Report.kqps 860_000.)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "single value" `Quick test_histogram_single;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "negative rejected" `Quick test_histogram_negative_rejected;
        ] );
      ("summary", [ Alcotest.test_case "moments" `Quick test_summary ]);
      ("report", [ Alcotest.test_case "formats" `Quick test_report_formats ]);
      qsuite "properties"
        [
          histogram_percentile_monotone;
          histogram_percentile_bounds;
          histogram_percentile_matches_scan;
          histogram_mean_matches_list;
          summary_mean_bounds;
        ];
    ]
