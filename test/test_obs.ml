(* The observability layer: the bounded ring, the metrics registry's
   histograms, cascade-trace propagation through multi-level cascades
   (including across the deferred gap), the shared failure/audit bounds,
   and a differential check that firing decisions are identical with
   observability on and off. *)

open Helpers
module Coupling = Sentinel.Coupling
module Error_policy = Sentinel.Error_policy
module Audit = Sentinel.Audit
module Ring = Obs.Ring
module Metrics = Obs.Metrics
module Trace = Obs.Trace

(* Enable metrics + tracing around [f], always restoring the disabled state
   so the other suites keep their zero-overhead path. *)
let with_obs f =
  Metrics.enable ();
  Trace.enable ();
  Metrics.reset ();
  Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Trace.disable ())
    f

(* --- ring ----------------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Ring.create 8 in
  for i = 0 to 99 do
    Ring.push r i
  done;
  Alcotest.(check (list int))
    "keeps the newest 8, oldest first"
    [ 92; 93; 94; 95; 96; 97; 98; 99 ]
    (Ring.to_list r);
  Alcotest.(check int) "total counts evicted pushes" 100 (Ring.total r);
  Alcotest.(check int) "length is the cap" 8 (Ring.length r);
  Alcotest.(check (list int)) "recent n, oldest first" [ 97; 98; 99 ]
    (Ring.recent r 3);
  Ring.clear r;
  Alcotest.(check int) "clear drops entries" 0 (Ring.length r);
  Alcotest.(check int) "total survives clear" 100 (Ring.total r);
  let z = Ring.create 0 in
  Ring.push z 1;
  Alcotest.(check int) "cap 0 stores nothing" 0 (Ring.length z);
  Alcotest.(check int) "cap 0 still counts" 1 (Ring.total z)

(* dropped counts capacity evictions only: clear empties the ring without
   dropping anything, which is exactly where total - length over-reports *)
let test_ring_dropped () =
  let r = Ring.create 4 in
  for i = 0 to 9 do
    Ring.push r i
  done;
  Alcotest.(check int) "evictions counted" 6 (Ring.dropped r);
  Ring.clear r;
  Alcotest.(check int) "clear is not a drop" 6 (Ring.dropped r);
  Alcotest.(check int) "total keeps counting" 10 (Ring.total r);
  Ring.push r 42;
  Alcotest.(check int) "no new drop until full again" 6 (Ring.dropped r);
  Alcotest.(check bool) "total - length would over-report" true
    (Ring.total r - Ring.length r > Ring.dropped r);
  let z = Ring.create 0 in
  Ring.push z 1;
  Alcotest.(check int) "cap 0 drops every push" 1 (Ring.dropped z)

let ring_bound_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"ring holds exactly the newest min(cap,n)"
       ~count:200
       QCheck2.Gen.(pair (int_bound 20) (list_size (int_bound 200) small_int))
       (fun (cap, xs) ->
         let r = Ring.create cap in
         List.iter (Ring.push r) xs;
         let n = List.length xs in
         let kept = min cap n in
         Ring.length r = kept
         && Ring.total r = n
         && Ring.to_list r = List.filteri (fun i _ -> i >= n - kept) xs))

(* --- histograms ----------------------------------------------------------- *)

(* Power-of-two buckets report the upper bound of the matched bucket, so a
   percentile is exact to within a factor of two: 1000 ns lands in
   [512, 1024) -> 1024; 1e6 ns in [2^19, 2^20) -> 1048576. *)
let test_histogram_known () =
  Metrics.reset ();
  let st = Metrics.register ~id:(Oodb.Symbol.intern "test.hist") "test.hist" in
  for _ = 1 to 100 do
    Metrics.observe_ns st 1000.
  done;
  for _ = 1 to 10 do
    Metrics.observe_ns st 1_000_000.
  done;
  Alcotest.(check int) "samples" 110 (Metrics.samples st);
  Alcotest.(check (float 0.)) "p50 bucket bound" 1024. (Metrics.percentile st 50.);
  Alcotest.(check (float 0.)) "p99 bucket bound" 1048576.
    (Metrics.percentile st 99.);
  Alcotest.(check (float 1e-6)) "mean is exact" (10_100_000. /. 110.)
    (Metrics.mean_ns st);
  Alcotest.(check (float 0.)) "max is exact" 1_000_000. (Metrics.max_ns st)

(* The two percentile edges the rank scan used to get wrong: bucket 0 holds
   observations <= 1 ns (upper bound 1, not 2), and the scan must clamp to
   the last populated bucket instead of running off the end of the
   histogram and reporting 2^48 ns. *)
let test_percentile_edges () =
  Metrics.reset ();
  let st =
    Metrics.register ~id:(Oodb.Symbol.intern "test.p.edges") "test.p.edges"
  in
  for _ = 1 to 50 do
    Metrics.observe_ns st 0.5
  done;
  Alcotest.(check (float 0.)) "bucket 0 reports 1 ns" 1.
    (Metrics.percentile st 50.);
  Alcotest.(check (float 0.)) "p100 of sub-ns samples is still 1 ns" 1.
    (Metrics.percentile st 100.);
  Metrics.reset ();
  for _ = 1 to 3 do
    Metrics.observe_ns st 1000.
  done;
  Alcotest.(check (float 0.)) "p100 clamps to the last populated bucket"
    1024.
    (Metrics.percentile st 100.);
  Alcotest.(check (float 0.)) "p0 clamps to rank 1" 1024.
    (Metrics.percentile st 0.)

(* Monotonic clock regression: durations are non-negative and nested spans
   are ordered (child starts after parent, parent outlasts child) — with
   the old wall-clock stamps an NTP step could violate both. *)
let test_monotonic_durations () =
  with_obs (fun () ->
      Trace.set_capacity 1024;
      let outer = Trace.enter "outer" "" in
      let inner = Trace.enter "inner" "" in
      Unix.sleepf 0.002;
      Trace.exit inner;
      Trace.exit outer;
      let find n =
        List.find (fun s -> String.equal s.Trace.sp_name n) (Trace.spans ())
      in
      let o = find "outer" and i = find "inner" in
      Alcotest.(check bool) "inner duration >= slept time" true
        (i.Trace.sp_dur >= 1_500.);
      Alcotest.(check bool) "durations non-negative" true
        (o.Trace.sp_dur >= 0. && i.Trace.sp_dur >= 0.);
      Alcotest.(check bool) "child starts after parent" true
        (i.Trace.sp_ts >= o.Trace.sp_ts);
      Alcotest.(check bool) "parent outlasts child" true
        (o.Trace.sp_dur >= i.Trace.sp_dur);
      (* the raw clock never goes backwards *)
      let prev = ref (Obs.Clock.now_ns ()) in
      for _ = 1 to 10_000 do
        let t = Obs.Clock.now_ns () in
        if t < !prev then Alcotest.fail "monotonic clock went backwards";
        prev := t
      done)

let test_histogram_timed () =
  with_obs (fun () ->
      let st =
        Metrics.register ~id:(Oodb.Symbol.intern "test.sleep") "test.sleep"
      in
      let t0 = Metrics.enter st in
      Unix.sleepf 0.005;
      Metrics.exit st t0;
      Alcotest.(check int) "counted" 1 (Metrics.count st);
      Alcotest.(check int) "sampled" 1 (Metrics.samples st);
      let p50 = Metrics.percentile st 50. in
      Alcotest.(check bool)
        (Printf.sprintf "a 5ms sleep lands in a plausible bucket (got %.0f)" p50)
        true
        (p50 >= 5e6 && p50 <= 8e7))

(* --- cascade tracing ------------------------------------------------------ *)

let source_of (inst : Detector.instance) =
  (List.hd inst.Detector.constituents).Oodb.Occurrence.source

(* One send, three levels: set_salary fires level1 (action cascades a
   change_income send), which completes level2's Sequence composite and
   fires level3, whose action fails under Contain.  Every span — both
   sends, routing, detection, the firings and the "contained" marker —
   must carry the trace id assigned at the outermost send, and the audit
   entries must join to it. *)
let test_cascade_trace () =
  let db = employee_db () in
  let sys = System.create db in
  let audit = Audit.attach sys in
  let e = new_employee db in
  System.register_action sys "bump" (fun db inst ->
      ignore (Db.send db (source_of inst) "change_income" [ Value.Float 1. ]));
  System.register_action sys "noop" (fun _ _ -> ());
  System.register_action sys "explode" (fun _ _ -> failwith "boom");
  ignore
    (System.create_rule sys ~name:"level1" ~monitor_classes:[ "employee" ]
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"bump" ());
  ignore
    (System.create_rule sys ~name:"level2-seq" ~monitor_classes:[ "employee" ]
       ~event:
         (Expr.seq
            (Expr.eom ~cls:"employee" "set_salary")
            (Expr.eom ~cls:"employee" "change_income"))
       ~condition:"true" ~action:"noop" ());
  ignore
    (System.create_rule sys ~name:"level3-bomb" ~monitor_classes:[ "employee" ]
       ~policy:Error_policy.Contain
       ~event:(Expr.eom ~cls:"employee" "change_income")
       ~condition:"true" ~action:"explode" ());
  with_obs (fun () ->
      ignore (Db.send db e "set_salary" [ Value.Float 9. ]);
      let spans = Trace.spans () in
      Alcotest.(check bool) "spans recorded" true (spans <> []);
      let tr = (List.hd spans).Trace.sp_trace in
      Alcotest.(check bool) "every span shares the root trace id" true
        (List.for_all (fun s -> s.Trace.sp_trace = tr) spans);
      let names = List.map (fun s -> s.Trace.sp_name) spans in
      let count n = List.length (List.filter (String.equal n) names) in
      Alcotest.(check bool) "the cascaded send is in the trace" true
        (count "send" >= 2);
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " span present") true (count n >= 1))
        [ "send"; "route"; "detect"; "fire"; "contained" ];
      Alcotest.(check int) "find_trace returns the whole cascade"
        (List.length spans)
        (List.length (Trace.find_trace tr));
      let entries = Audit.entries audit in
      Alcotest.(check bool) "audit recorded the firings" true (entries <> []);
      List.iter
        (fun (en : Audit.entry) ->
          Alcotest.(check int) "audit entry joins to the trace" tr
            en.Audit.e_trace)
        entries);
  Audit.detach audit

(* A deferred firing runs at commit, outside the triggering send's dynamic
   extent; the captured trace id must carry across, adding "defer",
   "schedule" and "fire" spans to the same cascade. *)
let test_deferred_schedule_span () =
  let db = employee_db () in
  let sys = System.create db in
  let e = new_employee db in
  let ran = ref 0 in
  System.register_action sys "tick" (fun _ _ -> incr ran);
  ignore
    (System.create_rule sys ~name:"later" ~coupling:Coupling.Deferred
       ~monitor_classes:[ "employee" ]
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"tick" ());
  with_obs (fun () ->
      (match
         Transaction.atomically db (fun () ->
             ignore (Db.send db e "set_salary" [ Value.Float 1. ]))
       with
      | Ok () -> ()
      | Error exn -> raise exn);
      Alcotest.(check int) "rule ran at commit" 1 !ran;
      let spans = Trace.spans () in
      let root =
        List.find (fun s -> String.equal s.Trace.sp_name "send") spans
      in
      let in_trace = Trace.find_trace root.Trace.sp_trace in
      let names = List.map (fun s -> s.Trace.sp_name) in_trace in
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (n ^ " belongs to the triggering send's trace")
            true (List.mem n names))
        [ "send"; "defer"; "schedule"; "fire" ])

(* --- shared bounds: failure log and audit --------------------------------- *)

let hammer ~failure_log_limit ~audit_limit ~n =
  let db = employee_db () in
  let sys =
    System.create ~failure_log_limit ~dead_letter_limit:8
      ~retry_backoff:(fun _ -> ())
      db
  in
  let audit = Audit.attach ~limit:audit_limit sys in
  let e = new_employee db in
  System.register_action sys "explode" (fun _ _ -> failwith "boom");
  ignore
    (System.create_rule sys ~name:"bomb" ~policy:Error_policy.Contain
       ~monitor_classes:[ "employee" ]
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"explode" ());
  for i = 1 to n do
    ignore (Db.send db e "set_salary" [ Value.Float (float_of_int i) ])
  done;
  let failures = List.length (System.recent_failures sys)
  and entries = List.length (Audit.entries audit)
  and total = Audit.count audit
  and contained = (System.stats sys).System.contained_failures in
  Audit.detach audit;
  (failures, entries, total, contained)

let test_failure_bounds () =
  let failures, entries, total, contained =
    hammer ~failure_log_limit:64 ~audit_limit:50 ~n:10_000
  in
  Alcotest.(check int) "failure log capped at its limit" 64 failures;
  Alcotest.(check int) "audit capped at its limit" 50 entries;
  Alcotest.(check int) "audit total counts every attempt" 10_000 total;
  Alcotest.(check int) "every firing was contained" 10_000 contained

let bounds_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"failure log and audit never exceed their bounds" ~count:20
       QCheck2.Gen.(
         triple (int_range 1 16) (int_range 1 16) (int_range 1 120))
       (fun (flim, alim, n) ->
         let failures, entries, total, _ =
           hammer ~failure_log_limit:flim ~audit_limit:alim ~n
         in
         failures <= flim && entries <= alim && total = n))

(* --- differential: observability must not change semantics ---------------- *)

let scenario_fired name ~obs =
  let db = Db.create () in
  let sys = System.create db in
  Workloads.Payroll.install db;
  Workloads.Stock_market.install db;
  Workloads.Hospital.install db;
  Workloads.Banking.install db;
  let rng = Workloads.Prng.create 11 in
  let fired = ref 0 in
  System.register_action sys "count" (fun _ _ -> incr fired);
  let run () =
    match name with
    | "market" ->
      let market =
        Workloads.Stock_market.populate db rng ~stocks:20 ~indexes:3
          ~portfolios:5
      in
      ignore
        (System.create_rule sys ~name:"w"
           ~monitor_classes:[ Workloads.Stock_market.stock_class ]
           ~event:(Expr.eom ~cls:Workloads.Stock_market.stock_class "set_price")
           ~condition:"true" ~action:"count" ());
      Workloads.Dsl.apply_ops db (Workloads.Stock_market.ticks rng market ~n:400)
    | "payroll" ->
      let pop = Workloads.Payroll.populate db rng ~managers:2 ~employees:20 in
      ignore
        (System.create_rule sys ~name:"w"
           ~monitor_classes:[ Workloads.Payroll.employee_class ]
           ~event:(Expr.eom ~cls:Workloads.Payroll.employee_class "set_salary")
           ~condition:"true" ~action:"count" ());
      Workloads.Dsl.apply_ops db
        (Workloads.Payroll.salary_updates rng pop ~n:400)
    | "hospital" ->
      let ward =
        Workloads.Hospital.populate db rng ~patients:20 ~physicians:3
      in
      ignore
        (System.create_rule sys ~name:"w"
           ~monitor_classes:[ Workloads.Hospital.patient_class ]
           ~event:(Expr.eom ~cls:Workloads.Hospital.patient_class "record_vitals")
           ~condition:"true" ~action:"count" ());
      Workloads.Dsl.apply_ops db
        (Workloads.Hospital.vitals_stream rng ward ~n:400 ())
    | "banking" ->
      let accounts = Workloads.Banking.populate db rng ~accounts:20 in
      ignore
        (System.create_rule sys ~name:"w"
           ~monitor_classes:[ Workloads.Banking.account_class ]
           ~event:
             (Expr.seq
                (Expr.eom ~cls:Workloads.Banking.account_class "deposit")
                (Expr.bom ~cls:Workloads.Banking.account_class "withdraw"))
           ~condition:"true" ~action:"count" ());
      Workloads.Dsl.apply_ops db
        (Workloads.Banking.transactions rng accounts ~n:400 ())
    | other -> Alcotest.failf "unknown scenario %s" other
  in
  if obs then with_obs run else run ();
  !fired

let test_differential_firing () =
  List.iter
    (fun name ->
      let off = scenario_fired name ~obs:false in
      let on = scenario_fired name ~obs:true in
      Alcotest.(check bool) (name ^ ": scenario fires at all") true (off > 0);
      Alcotest.(check int)
        (name ^ ": same firing count with observability on")
        off on)
    [ "market"; "payroll"; "hospital"; "banking" ]

(* Batch spans share preallocated labels: same text as before, no
   formatting per batch. *)
let test_batch_label_shared () =
  Alcotest.(check string) "text" "batch:64" (Trace.batch_label 64);
  Alcotest.(check bool) "small n: one shared string" true
    (Trace.batch_label 64 == Trace.batch_label 64);
  Alcotest.(check string) "edge of the table" "batch:256" (Trace.batch_label 256);
  Alcotest.(check string) "beyond the table" "batch:100000"
    (Trace.batch_label 100_000)

let suite =
  [
    test "ring wraparound" test_ring_wraparound;
    test "ring dropped counts evictions, not clears" test_ring_dropped;
    ring_bound_prop;
    test "histogram percentiles from known durations" test_histogram_known;
    test "percentile edges: bucket 0 and rank clamp" test_percentile_edges;
    test "monotonic clock: durations non-negative and ordered"
      test_monotonic_durations;
    test "histogram times a real wait" test_histogram_timed;
    test "cascade trace spans share one id" test_cascade_trace;
    test "deferred firing keeps its trace" test_deferred_schedule_span;
    test "10k contained failures stay bounded" test_failure_bounds;
    bounds_prop;
    test "firing counts unchanged by observability" test_differential_firing;
    test "batch labels are shared strings" test_batch_label_shared;
  ]
