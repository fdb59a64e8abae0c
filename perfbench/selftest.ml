(* The benchmark's own tests:  selftest PATH-TO-perfbench.exe
   Unit checks of the percentile, the notification matching and the
   closed-loop accounting, then a tiny run of every workload, which must
   be correct, and a deliberately broken run, which must not be. *)

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let books () = { Drive.attempted = 0; failed = 0; notes = [] }

let test_percentile () =
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  expect "p50 of 1..10 is 5" (Stat.percentile xs 50. = 5.);
  expect "p90 of 1..10 is 9" (Stat.percentile xs 90. = 9.);
  expect "p99 of 1..10 is 10" (Stat.percentile xs 99. = 10.);
  expect "p0 clamps to the minimum" (Stat.percentile xs 0. = 1.);
  expect "no samples give nan" (Float.is_nan (Stat.percentile [||] 50.));
  expect "percentile leaves its input unsorted" (xs.(0) = 10.)

let occ oid meth params at =
  Oodb.Occurrence.make ~source:(Oodb.Oid.of_int oid) ~source_class:"stock" ~meth
    ~modifier:Oodb.Types.After ~params ~at

let test_matching () =
  let a = occ 3 "set_price" [ Oodb.Value.Float 171.25 ] 1 in
  let b = occ 5 "set_value" [ Oodb.Value.Float 2500.5; Oodb.Value.Float 1.5 ] 2 in
  let key cs = Drive.instance_key { Events.Detector.constituents = cs; t_start = 1; t_end = 2 } in
  expect "instance key ignores constituent order" (key [ a; b ] = key [ b; a ]);
  expect "instance key is the event key for one constituent"
    (key [ a ] = Drive.occ_key 3 "set_price" [ Oodb.Value.Float 171.25 ]);
  expect "instance key tells parameters apart"
    (key [ a ] <> key [ occ 3 "set_price" [ Oodb.Value.Float 171.5 ] 1 ]);
  let bk = books () in
  Drive.check_notifies bk ~expected:[ "a"; "b"; "b" ] ~received:[ "b"; "a"; "c" ];
  expect "a missing and an extra notification fail once each"
    (bk.failed = 2 && bk.attempted = 4);
  let bk = books () in
  Drive.check_notifies bk ~expected:[ "a"; "b" ] ~received:[ "b"; "a" ];
  expect "matching notifications pass" (bk.failed = 0 && bk.attempted = 2)

let test_accounting () =
  let run ~acked ~ingested =
    let bk = books () in
    Drive.check_acks bk ~sent:[| 64; 64 |] ~acked ~ingested;
    (bk.attempted, bk.failed)
  in
  expect "every event acked once" (run ~acked:[| 64; 64 |] ~ingested:128 = (128, 0));
  expect "a dropped Ack fails its events" (run ~acked:[| 64; 0 |] ~ingested:128 = (128, 128));
  expect "an ingest the server never counted fails" (run ~acked:[| 64; 64 |] ~ingested:100 = (128, 28));
  expect "a duplicate ingest fails" (run ~acked:[| 64; 64 |] ~ingested:192 = (128, 64))

(* The last line of a run: (correct, attempted, failed). *)
let run_result exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "run" :: args)) in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  let last = List.nth lines (List.length lines - 1) in
  ( status,
    Scanf.sscanf last "{\"correct\": %B, \"attempted\": %d, \"failed\": %d" (fun c a f -> (c, a, f)) )

let test_runs exe =
  let dir = Filename.concat (Sys.getcwd ()) "selftest_work" in
  let args w extra =
    [ "--workload"; w; "--seed"; "3"; "--seconds"; "1"; "--tiny"; "--workdir"; dir ] @ extra
  in
  List.iter
    (fun (s : Spec.t) ->
      List.iter
        (fun trace ->
          match run_result exe (args s.name [ "--trace"; trace ]) with
          | Unix.WEXITED 0, (true, attempted, 0) ->
            expect (Printf.sprintf "tiny %s run, trace %s, is correct" s.name trace) (attempted > 0)
          | _ -> expect (Printf.sprintf "tiny %s run, trace %s, is correct" s.name trace) false)
        [ "0"; "1" ])
    Spec.all;
  (match run_result exe (args "market_feed" [ "--trace"; "0"; "--fault"; "drop-ack" ]) with
  | Unix.WEXITED 0, (false, _, failed) -> expect "a dropped Ack raises failed_frac" (failed > 0)
  | _ -> expect "a dropped Ack raises failed_frac" false);
  Proc.rm_rf dir

let () =
  test_percentile ();
  test_matching ();
  test_accounting ();
  (match Sys.argv with
  | [| _; exe |] ->
    test_runs (if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe) | _ -> print_endline "skip: no perfbench.exe given");
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
