(* The harness's order statistics against a fixed table whose expected
   values were computed with perfbench/stat.ml, plus the trial order and
   the JSON shape of a timed metric. *)

open Bench_util

let float_eq =
  Alcotest.testable Fmt.float (fun a b ->
      (Float.is_nan a && Float.is_nan b) || a = b)

(* name, samples, expected (p25, p50, p75, p99) *)
let table =
  [
    ("n=0", [||], (nan, nan, nan, nan));
    ("n=1", [| 7. |], (7., 7., 7., 7.));
    ("n=2", [| 3.; 1. |], (1., 1., 3., 3.));
    ("n=4 (even)", [| 10.; 40.; 20.; 30. |], (10., 20., 30., 40.));
    ("n=5", [| 5.; 1.; 4.; 2.; 3. |], (2., 3., 4., 5.));
    ("duplicates", [| 2.; 2.; 9.; 2.; 9.; 1. |], (2., 2., 9., 9.));
  ]

let percentile_case (name, samples, (p25, p50, p75, p99)) =
  Alcotest.test_case name `Quick (fun () ->
      let check what want got = Alcotest.check float_eq what want got in
      check "p25" p25 (percentile samples 25.);
      check "p50" p50 (percentile samples 50.);
      check "p75" p75 (percentile samples 75.);
      check "p99" p99 (percentile samples 99.);
      check "median" p50 (median samples);
      let s = stat samples in
      check "stat q1" p25 s.q1;
      check "stat median" p50 s.median;
      check "stat q3" p75 s.q3)

let test_round_robin () =
  let log = ref [] in
  let arm name x () =
    log := name :: !log;
    (x, name)
  in
  let r = trials [ ("a", arm "a" 1.); ("b", arm "b" 2.) ] in
  Alcotest.(check (list string))
    "arms interleave"
    (List.concat (List.init n_trials (fun _ -> [ "a"; "b" ])))
    (List.rev !log);
  let b, sides = List.assoc "b" r in
  Alcotest.check float_eq "median" 2. b.median;
  Alcotest.(check int) "one side result per trial" n_trials (Array.length sides)

let test_timed_json () =
  let s = stat [| 3.; 1.5; 2. |] in
  Alcotest.(check string)
    "median and quartiles"
    "{\n  \"k\": 2,\n  \"k_q1\": 1.5,\n  \"k_q3\": 3\n}"
    (to_string 0 (Obj (timed "k" s)))

let () =
  Alcotest.run "bench_util"
    [
      ("percentile", List.map percentile_case table);
      ( "harness",
        [
          Alcotest.test_case "trials run round-robin" `Quick test_round_robin;
          Alcotest.test_case "timed metric json" `Quick test_timed_json;
        ] );
    ]
