(* The event graph at the detector level, with no rule layer: Events.Route
   indexes every registered detector's primitive leaves by (method,
   modifier), so an occurrence reaches only the leaves that can match it.
   Driven by sends on the Figure 8 employee schema, against detectors fed
   every occurrence (the naive broadcast). *)

open Helpers
module Route = Events.Route

let consumer i = Oid.of_int (1_000_000 + i)

(* A database whose sends are delivered through a fresh index, with a
   wildcard tap (consumer 0) recording every occurrence in delivery order —
   the stream the naive detectors are fed. *)
let graph () =
  let db = employee_db () in
  let rt = Route.create db in
  Db.set_route db (Some (fun _ o occ -> Route.deliver rt o occ));
  let tap = ref [] in
  Db.subscribe_class db ~cls:"employee" ~consumer:(consumer 0);
  Route.register_wildcard rt ~consumer:(consumer 0) (fun occ ->
      tap := occ :: !tap);
  (db, rt, fun () -> List.rev !tap)

(* Register a detector for [expr] as consumer [i], subscribed to the
   employee class. *)
let subscribe db rt i ~on_signal expr =
  Db.subscribe_class db ~cls:"employee" ~consumer:(consumer i);
  Route.register rt ~consumer:(consumer i) ~on_receive:ignore
    (Detector.create ~on_signal expr)

let send db e = function
  | ("set_salary" | "change_income") as m ->
    ignore (Db.send db e m [ Value.Float 1. ])
  | m -> ignore (Db.send db e m [])

(* Signal counts per expression: routed through the index, and from
   detectors fed the whole recorded stream. *)
let routed_and_naive exprs meths =
  let db, rt, stream = graph () in
  let counts = List.map (fun _ -> ref 0) exprs in
  List.iteri
    (fun i (e, n) -> subscribe db rt (i + 1) ~on_signal:(fun _ -> incr n) e)
    (List.combine exprs counts);
  let emps = [| new_employee db; new_employee db |] in
  List.iteri (fun i m -> send db emps.(i mod 2) m) meths;
  let naive = List.map (fun e -> List.length (snd (detect e (stream ())))) exprs in
  (List.map (fun r -> !r) counts, naive)

let test_routing_equivalence () =
  let exprs =
    [
      Expr.eom ~cls:"employee" "set_salary";
      Expr.conj (Expr.eom ~cls:"employee" "set_salary")
        (Expr.eom ~cls:"employee" "change_income");
      Expr.seq (Expr.eom ~cls:"employee" "change_income")
        (Expr.bom ~cls:"employee" "get_age");
      Expr.disj (Expr.eom ~cls:"employee" "set_salary")
        (Expr.eom ~cls:"employee" "get_age");
    ]
  in
  let meths =
    List.init 60 (fun i ->
        List.nth [ "set_salary"; "change_income"; "get_age"; "get_salary" ] (i mod 4))
  in
  let routed, naive = routed_and_naive exprs meths in
  Alcotest.(check (list int)) "same detections" naive routed;
  Alcotest.(check bool) "non-trivial" true (List.for_all (fun n -> n > 0) naive)

let test_routing_is_selective () =
  let db, rt, _ = graph () in
  (* 50 detectors on distinct methods; only the 8th names one that is sent *)
  let hits = Array.make 50 0 in
  for i = 0 to 49 do
    let meth = if i = 7 then "get_age" else Printf.sprintf "m%d" i in
    subscribe db rt (i + 1)
      ~on_signal:(fun _ -> hits.(i) <- hits.(i) + 1)
      (Expr.eom ~cls:"employee" meth)
  done;
  Alcotest.(check int) "leaves indexed" 50 (Route.leaf_count rt);
  let e = new_employee db in
  send db e "get_age";
  (* the Before occurrence has no bucket; the After one probes one leaf *)
  Alcotest.(check int) "probed once" 1 (Route.counters rt).candidates_probed;
  Alcotest.(check int) "offered once" 1 (Route.counters rt).leaves_offered;
  Alcotest.(check int) "get_age fired" 1 hits.(7);
  Alcotest.(check int) "nothing else fired" 1 (Array.fold_left ( + ) 0 hits);
  (* an occurrence no leaf names probes nothing *)
  send db e "set_salary";
  Alcotest.(check int) "still one" 1 (Route.counters rt).candidates_probed

let test_unsubscribe () =
  let db, rt, _ = graph () in
  let n = ref 0 in
  subscribe db rt 1 ~on_signal:(fun _ -> incr n) (Expr.eom ~cls:"employee" "get_age");
  let e = new_employee db in
  send db e "get_age";
  Route.unregister rt (consumer 1);
  Route.unregister rt (consumer 1) (* idempotent *);
  send db e "get_age";
  Alcotest.(check int) "stopped" 1 !n;
  Alcotest.(check bool) "not registered" false (Route.registered rt (consumer 1));
  Alcotest.(check int) "no leaves" 0 (Route.leaf_count rt)

(* The bucket key carries the modifier: a Before and an After detector on
   the same method each see only their own occurrence. *)
let test_modifier_keying () =
  let db, rt, _ = graph () in
  let boms = ref 0 and eoms = ref 0 in
  subscribe db rt 1 ~on_signal:(fun _ -> incr boms) (Expr.bom ~cls:"employee" "get_age");
  subscribe db rt 2 ~on_signal:(fun _ -> incr eoms) (Expr.eom ~cls:"employee" "get_age");
  send db (new_employee db) "get_age";
  Alcotest.(check int) "bom" 1 !boms;
  Alcotest.(check int) "eom" 1 !eoms;
  (* each occurrence routed to exactly the matching-modifier leaf *)
  Alcotest.(check int) "probed" 2 (Route.counters rt).candidates_probed;
  Alcotest.(check int) "offered" 2 (Route.counters rt).leaves_offered

(* A temporal detector's clock advances on every occurrence its consumer is
   subscribed to, including methods none of its leaves name. *)
let test_temporal_advance () =
  let db, rt, _ = graph () in
  let ticks = ref 0 in
  subscribe db rt 1
    ~on_signal:(fun _ -> incr ticks)
    (Expr.periodic (Expr.eom ~cls:"employee" "set_salary") 10
       (Expr.eom ~cls:"employee" "change_income"));
  let e = new_employee db in
  send db e "set_salary";
  Alcotest.(check int) "no tick yet" 0 !ticks;
  Db.advance_clock db (Db.now db + 25);
  send db e "get_salary";
  Alcotest.(check int) "unrelated traffic fires the due ticks" 2 !ticks

let prop_graph_equals_naive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"graph routing = naive feeding" ~count:100
       QCheck2.Gen.(
         list_size (int_bound 40) (oneofl [ "set_salary"; "change_income"; "get_age" ]))
       (fun meths ->
         let exprs =
           [
             Expr.seq (Expr.eom ~cls:"employee" "set_salary")
               (Expr.eom ~cls:"employee" "change_income");
             Expr.conj (Expr.eom ~cls:"employee" "change_income")
               (Expr.bom ~cls:"employee" "get_age");
             Expr.any 2
               [
                 Expr.eom ~cls:"employee" "set_salary";
                 Expr.eom ~cls:"employee" "change_income";
                 Expr.eom ~cls:"employee" "get_age";
               ];
           ]
         in
         let routed, naive = routed_and_naive exprs meths in
         routed = naive))

let suite =
  [
    test "routing equivalence" test_routing_equivalence;
    test "routing is selective" test_routing_is_selective;
    test "unsubscribe" test_unsubscribe;
    test "modifier keying" test_modifier_keying;
    test "temporal advance" test_temporal_advance;
    prop_graph_equals_naive;
  ]
