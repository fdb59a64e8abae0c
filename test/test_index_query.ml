open Helpers
module Query = Oodb.Query

let db_with_index () =
  let db = employee_db () in
  let emps =
    List.init 10 (fun i ->
        new_employee db
          ~name:(Printf.sprintf "e%d" i)
          ~salary:(float_of_int (100 * (i mod 3))))
  in
  let mgr = new_employee db ~cls:"manager" ~salary:0. ~name:"m0" in
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  (db, emps, mgr)

let lookup db v =
  Db.index_lookup db ~cls:"employee" ~attr:"salary" (Value.Float v)

let test_index_builds_over_existing () =
  let db, _, mgr = db_with_index () in
  (* 0,3,6,9 have salary 0, plus the manager *)
  Alcotest.(check int) "bucket size" 5 (List.length (lookup db 0.));
  Alcotest.(check bool) "includes subclass instance" true
    (List.exists (Oid.equal mgr) (lookup db 0.))

let test_index_maintained_on_set () =
  let db, emps, _ = db_with_index () in
  let e = List.hd emps in
  Db.set db e "salary" (Value.Float 777.);
  Alcotest.(check (list oid)) "new bucket" [ e ] (lookup db 777.);
  Alcotest.(check bool) "old bucket updated" true
    (not (List.exists (Oid.equal e) (lookup db 0.)))

let test_index_maintained_on_create_delete () =
  let db, _, _ = db_with_index () in
  let e = new_employee db ~salary:555. in
  Alcotest.(check (list oid)) "new object indexed" [ e ] (lookup db 555.);
  Db.delete_object db e;
  Alcotest.(check (list oid)) "removed on delete" [] (lookup db 555.)

let test_index_consistent_after_abort () =
  let db, emps, _ = db_with_index () in
  let e = List.hd emps in
  Transaction.begin_ db;
  Db.set db e "salary" (Value.Float 888.);
  let e2 = new_employee db ~salary:888. in
  Alcotest.(check int) "inside txn" 2 (List.length (lookup db 888.));
  ignore e2;
  Transaction.abort db;
  Alcotest.(check (list oid)) "bucket emptied by abort" [] (lookup db 888.);
  Alcotest.(check bool) "back in old bucket" true
    (List.exists (Oid.equal e) (lookup db 0.))

let test_index_management () =
  let db, _, _ = db_with_index () in
  Alcotest.(check bool) "has" true (Db.has_index db ~cls:"employee" ~attr:"salary");
  Db.create_index db ~cls:"employee" ~attr:"salary" (); (* idempotent *)
  Db.drop_index db ~cls:"employee" ~attr:"salary";
  Alcotest.(check bool) "dropped" false
    (Db.has_index db ~cls:"employee" ~attr:"salary");
  check_raises_any "lookup after drop" (fun () -> lookup db 0.)

let test_query_predicates () =
  let db, _, _ = db_with_index () in
  let q p = List.length (Query.select db "employee" p) in
  Alcotest.(check int) "eq" 5 (q (Query.Eq ("salary", Value.Float 0.)));
  Alcotest.(check int) "ne" 6 (q (Query.Ne ("salary", Value.Float 0.)));
  Alcotest.(check int) "lt" 5 (q (Query.Lt ("salary", Value.Float 100.)));
  Alcotest.(check int) "le" 8 (q (Query.Le ("salary", Value.Float 100.)));
  Alcotest.(check int) "gt" 3 (q (Query.Gt ("salary", Value.Float 100.)));
  Alcotest.(check int) "ge" 6 (q (Query.Ge ("salary", Value.Float 100.)));
  Alcotest.(check int) "true" 11 (q Query.True);
  Alcotest.(check int) "and" 2
    (q (Query.And (Query.Eq ("salary", Value.Float 100.), Query.Ne ("name", Value.Str "e1"))));
  Alcotest.(check int) "or" 8
    (q (Query.Or (Query.Eq ("salary", Value.Float 0.), Query.Eq ("salary", Value.Float 100.))));
  Alcotest.(check int) "not" 6 (q (Query.Not (Query.Eq ("salary", Value.Float 0.))));
  Alcotest.(check int) "has" 11 (q (Query.Has "salary"));
  Alcotest.(check int) "shallow" 4
    (List.length
       (Query.select db ~deep:false "employee" (Query.Eq ("salary", Value.Float 0.))))

let test_query_missing_attr_is_false () =
  let db = Db.create () in
  Db.define_class db (Schema.define "a" ~attrs:[ ("x", Value.Int 1) ]);
  Db.define_class db (Schema.define "b" ~super:"a" ~attrs:[ ("y", Value.Int 2) ]);
  let _a = Db.new_object db "a" in
  let b = Db.new_object db "b" in
  (* querying the deep extent of [a] on [y]: plain [a]s simply don't match *)
  Alcotest.(check (list oid))
    "heterogeneous extent" [ b ]
    (Query.select db "a" (Query.Eq ("y", Value.Int 2)))

let test_ordered_index () =
  let db = employee_db () in
  let emps =
    List.init 20 (fun i -> new_employee db ~salary:(float_of_int (i * 10)))
  in
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
  Alcotest.(check bool) "kind reported" true
    (Db.index_kind db ~cls:"employee" ~attr:"salary" = Some `Ordered);
  (* equality works on ordered indexes too *)
  Alcotest.(check (list oid)) "eq probe" [ List.nth emps 3 ]
    (Db.index_lookup db ~cls:"employee" ~attr:"salary" (Value.Float 30.));
  (* range probe *)
  Alcotest.(check int) "range probe" 3
    (List.length
       (Db.index_range db ~cls:"employee" ~attr:"salary"
          ~lo:(Value.Float 50., true) ~hi:(Value.Float 70., true) ()));
  (* maintained under mutation *)
  Db.set db (List.hd emps) "salary" (Value.Float 65.);
  Alcotest.(check int) "after set" 4
    (List.length
       (Db.index_range db ~cls:"employee" ~attr:"salary"
          ~lo:(Value.Float 50., true) ~hi:(Value.Float 70., true) ()));
  (* hash index refuses ranges *)
  Db.create_index db ~cls:"employee" ~attr:"name" ();
  check_raises_any "hash range" (fun () ->
      ignore (Db.index_range db ~cls:"employee" ~attr:"name" ()))

let test_query_uses_ordered_index () =
  let db = employee_db () in
  List.iter
    (fun i -> ignore (new_employee db ~salary:(float_of_int i)))
    (List.init 50 (fun i -> i));
  let p = Query.And (Query.Ge ("salary", Value.Float 10.), Query.Lt ("salary", Value.Float 20.)) in
  let scan = Query.select db "employee" p in
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
  Alcotest.(check (list oid)) "indexed = scan" scan (Query.select db "employee" p);
  Alcotest.(check int) "count" 10 (Query.count db "employee" p)

(* Property: index-accelerated select gives the same result as a scan. *)
let prop_index_matches_scan =
  QCheck2.Test.make ~name:"indexed select = scan select" ~count:50
    QCheck2.Gen.(list_size (int_bound 40) (int_bound 5))
    (fun salaries ->
      let db = employee_db () in
      List.iter
        (fun s -> ignore (new_employee db ~salary:(float_of_int s)))
        salaries;
      let p = Query.Eq ("salary", Value.Float 2.) in
      let scan = Query.select db "employee" p in
      Db.create_index db ~cls:"employee" ~attr:"salary" ();
      let indexed = Query.select db "employee" p in
      List.map Oid.to_int scan = List.map Oid.to_int indexed)

(* The life cycle of index postings at the Db level: keys held by one
   object, by a few and by many (a posting crosses its compact and table
   forms, a B+-tree key's run crosses leaves), under sets, deletes,
   creates and committed and aborted transactions.  After every step each
   held value's lookup, and a few ranges, equal an extent scan, and the
   database verifies. *)
let test_index_churn () =
  let db = employee_db () in
  let rng = Random.State.make [| 15 |] in
  let fresh = ref 0 in
  (* a third of the values are unique, a third one of 3 shared ones (tens
     of holders each), and a third one of 12 (about 8 holders each, near
     the size where a compact posting becomes a table) *)
  let value () =
    match Random.State.int rng 3 with
    | 0 ->
      incr fresh;
      `Unique !fresh
    | 1 -> `Shared (Random.State.int rng 3)
    | _ -> `Shared (3 + Random.State.int rng 12)
  in
  let name_of = function
    | `Unique k -> Value.Str (Printf.sprintf "u%d" k)
    | `Shared k -> Value.Str (Printf.sprintf "s%d" k)
  in
  let salary_of = function
    | `Unique k -> Value.Float (1000. +. float_of_int k)
    | `Shared k -> Value.Float (float_of_int k)
  in
  let create () =
    let cls = if Random.State.int rng 10 = 0 then "manager" else "employee" in
    ignore
      (Db.new_object db cls
         ~attrs:
           [ ("name", name_of (value ())); ("salary", salary_of (value ())) ])
  in
  for _ = 1 to 300 do
    create ()
  done;
  Db.create_index db ~cls:"employee" ~attr:"name" ();
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
  let pick () =
    let live = Array.of_list (Db.extent db "employee") in
    live.(Random.State.int rng (Array.length live))
  in
  let op () =
    match Random.State.int rng 10 with
    | 0 -> Db.delete_object db (pick ())
    | 1 -> create ()
    | _ ->
      let o = pick () in
      Db.set db o "salary" (salary_of (value ()));
      Db.set db o "name" (name_of (value ()))
  in
  let check step =
    let label what = Printf.sprintf "step %d: %s" step what in
    let oids = Db.extent db "employee" in
    let scan attr keep =
      List.filter
        (fun o ->
          match Db.get_opt db o attr with Some v -> keep v | None -> false)
        oids
    in
    List.iter
      (fun attr ->
        let held = Hashtbl.create 64 in
        List.iter
          (fun o ->
            match Db.get_opt db o attr with
            | Some v ->
              Hashtbl.replace held v
                (o :: Option.value ~default:[] (Hashtbl.find_opt held v))
            | None -> ())
          (List.rev oids);
        Hashtbl.iter
          (fun v expected ->
            Alcotest.(check (list oid))
              (label ("lookup " ^ Value.to_string v))
              expected
              (Db.index_lookup db ~cls:"employee" ~attr v))
          held;
        (* a shared value may have been vacated *)
        List.iter
          (fun k ->
            let v =
              if attr = "name" then name_of (`Shared k)
              else salary_of (`Shared k)
            in
            Alcotest.(check (list oid))
              (label ("shared " ^ Value.to_string v))
              (scan attr (Value.equal v))
              (Db.index_lookup db ~cls:"employee" ~attr v))
          (List.init 15 Fun.id))
      [ "name"; "salary" ];
    List.iter
      (fun (lo, hi) ->
        let inside v =
          (match lo with
          | Some (b, true) -> Value.compare v b >= 0
          | Some (b, false) -> Value.compare v b > 0
          | None -> true)
          &&
          match hi with
          | Some (b, true) -> Value.compare v b <= 0
          | Some (b, false) -> Value.compare v b < 0
          | None -> true
        in
        Alcotest.(check (list oid)) (label "range") (scan "salary" inside)
          (Db.index_range db ~cls:"employee" ~attr:"salary" ?lo ?hi ()))
      [
        (None, None);
        (Some (Value.Float 1., true), Some (Value.Float 1., true));
        (Some (Value.Float 0., false), Some (Value.Float 1100., false));
        (Some (Value.Float 2., true), None);
      ];
    match Oodb.Verify.check db with
    | Ok () -> ()
    | Error ps -> Alcotest.failf "%s" (label (String.concat "; " ps))
  in
  check 0;
  (* one value gains 20 holders one at a time and loses them again, so its
     posting passes through every form both ways; the second pass is
     rolled back *)
  let holders = Array.init 20 (fun _ -> pick ()) in
  let funnel = `Shared 99 in
  let step = ref 0 in
  let move v o =
    Db.set db o "salary" (salary_of v);
    Db.set db o "name" (name_of v);
    incr step;
    check !step
  in
  Array.iter (move funnel) holders;
  Array.iter (fun o -> move (value ()) o) holders;
  Transaction.begin_ db;
  Array.iter (move funnel) holders;
  Transaction.abort db;
  check 0;
  for step = 1 to 200 do
    (match Random.State.int rng 5 with
    | 0 ->
      Transaction.begin_ db;
      for _ = 1 to 1 + Random.State.int rng 5 do
        op ()
      done;
      if Random.State.bool rng then Transaction.commit db
      else Transaction.abort db
    | _ -> op ());
    check step
  done

let suite =
  [
    test "index builds over existing objects" test_index_builds_over_existing;
    test "index maintained on set" test_index_maintained_on_set;
    test "index maintained on create/delete" test_index_maintained_on_create_delete;
    test "index consistent after abort" test_index_consistent_after_abort;
    test "index management" test_index_management;
    test "query predicates" test_query_predicates;
    test "query over heterogeneous extent" test_query_missing_attr_is_false;
    test "ordered index" test_ordered_index;
    test "query uses ordered index" test_query_uses_ordered_index;
    QCheck_alcotest.to_alcotest prop_index_matches_scan;
    test "index postings survive churn" test_index_churn;
  ]
