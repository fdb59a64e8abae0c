(* The full benchmark harness: one experiment per entry of DESIGN.md §4.
   Each experiment prints the rows EXPERIMENTS.md records; shapes (who wins,
   how things scale) are the reproduction target, not absolute numbers.

   Run with: dune exec bench/main.exe            (all experiments)
             dune exec bench/main.exe -- e2 e6   (a subset) *)

module Db = Oodb.Db
module Value = Oodb.Value
module Oid = Oodb.Oid
module Schema = Oodb.Schema
module Transaction = Oodb.Transaction
module Expr = Events.Expr
module Detector = Events.Detector
module Context = Events.Context
module System = Sentinel.System
module Error_policy = Sentinel.Error_policy
module Prng = Workloads.Prng
module Market = Workloads.Stock_market
module Pool = Sentinel.Shard_pool
open Bench_util

(* ------------------------------------------------------------------------- *)
(* Fixtures shared by the experiments                                        *)
(* ------------------------------------------------------------------------- *)

let ok = function Ok x -> x | Error e -> raise e

let payroll_db () =
  let db = Db.create () in
  Workloads.Payroll.install db;
  db

(* [n] employees named by their index, in a fresh payroll store unless
   [db] is given. *)
let employees ?(db = payroll_db ()) n =
  let objs =
    Array.init n (fun i ->
        Db.new_object db "employee"
          ~attrs:[ ("name", Value.Str (string_of_int i)) ])
  in
  (db, objs)

(* [n] set_salary(1.0) operations on random members of [objs]. *)
let salary_ops rng objs n =
  List.init n (fun _ -> (Prng.choice rng objs, "set_salary", [ Value.Float 1. ]))

let hot_attr size = Printf.sprintf "a%d" (size / 2)

(* A store with class "wide": [size] int attributes, the hot one in the
   middle, written by "poke" and read by "peek". *)
let wide_db size =
  let db = Db.create () in
  Db.define_class db
    (Schema.define "wide"
       ~attrs:(List.init size (fun i -> (Printf.sprintf "a%d" i, Value.Int 0)))
       ~methods:
         [
           ("poke", Workloads.Dsl.setter (hot_attr size));
           ("peek", Workloads.Dsl.getter (hot_attr size));
         ]);
  db

(* [n] wide objects: their hot slot and a cycle over the first 16, the
   access pattern of the oltp and obs micro-benches. *)
let wide_objects db size n =
  let objs = Array.init n (fun _ -> Db.new_object db "wide") in
  let i = ref 0 in
  ( Db.resolve db "wide" (hot_attr size),
    fun () ->
      let o = Array.unsafe_get objs (!i land 15) in
      incr i;
      o )

(* [n] set_salary sends to random members of a seeded 100-person payroll
   population: events per second, and [sys]'s stats over them. *)
let payroll_send_eps sys n =
  let db = System.db sys in
  let rng = Prng.create 42 in
  let pop = Workloads.Payroll.populate db rng ~managers:10 ~employees:90 in
  let objs = Array.append pop.managers pop.employees in
  System.reset_stats sys;
  let args = [ Value.Float 1. ] in
  let eps =
    rate n (fun () ->
        for _ = 1 to n do
          ignore (Db.send db (Prng.choice rng objs) "set_salary" args)
        done)
  in
  (eps, System.stats sys)

(* A rule system with a "noop" action registered. *)
let noop_system ?routing ?retry_backoff db =
  let sys = System.create ?routing ?retry_backoff db in
  System.register_action sys "noop" (fun _ _ -> ());
  sys

(* A rule running "noop" on each employee set_salary it subscribes to. *)
let watch_salary ?name ?coupling ?monitor ?monitor_classes sys =
  ignore
    (System.create_rule sys ?name ?coupling ?monitor ?monitor_classes
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"noop" ())

(* Run [f] on [n] fresh temporary WAL paths, removed afterwards. *)
let with_wals n f =
  let paths =
    Array.init n (fun _ -> Filename.temp_file "sentinel_bench" ".wal")
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
    (fun () -> f paths)

let pool_ok = function
  | Ok x -> x
  | Error e -> failwith (Pool.error_to_string e)

(* The payroll schema with one class-level [watch_salary] rule: the engine
   behind every shard-pool send bench. *)
let payroll_watch () =
  let sys = noop_system (payroll_db ()) in
  watch_salary sys ~name:"watch" ~monitor_classes:[ "employee" ];
  sys

(* Events per second for [iters] set_salary posts striding over 256
   employees spread across an [n_shards] pool of [payroll_watch] engines,
   drain included. *)
let pool_send_eps ?supervision ~iters n_shards () =
  let pool =
    Pool.create ~shards:n_shards ?supervision
      ~init:(fun _ _ -> payroll_watch ())
      ()
  in
  let objs =
    Array.concat
      (List.init n_shards (fun i ->
           ok
             (Pool.run_on pool i (fun sys ->
                  Array.init (256 / n_shards) (fun _ ->
                      Db.new_object (System.db sys) "employee")))))
  in
  let args = [ Value.Float 1. ] in
  let eps =
    rate iters (fun () ->
        for k = 0 to iters - 1 do
          ignore (Pool.post pool objs.(k land 255) "set_salary" args)
        done;
        Pool.drain pool)
  in
  Pool.stop pool;
  (eps, ())

(* [tickers] stocks spread over a pool's [shards], each shard populating its
   slice from PRNG seed [seed + shard], gathered into one market. *)
let shard_market pool ~shards ~tickers ~seed =
  let slices =
    List.init shards (fun i ->
        ok
          (Pool.run_on pool i (fun sys ->
               Market.populate (System.db sys)
                 (Prng.create (seed + i))
                 ~stocks:(max 1 (tickers / shards))
                 ~indexes:0 ~portfolios:0)))
  in
  {
    Market.stocks = Array.concat (List.map (fun m -> m.Market.stocks) slices);
    indexes = [||];
    portfolios = [||];
  }

(* A pool for the ingestion benches: each shard a stock-market engine that
   journals fsync-per-commit to its own temporary WAL and counts its
   set_price firings.  Backpressure blocks for as long as it takes rather
   than shedding the measured workload.  [f pool market] runs the workload
   and returns its result and the number of events it sent; each event must
   have fired its rule exactly once, the cheap shadow of the differential
   suites. *)
let with_price_pool ?group_commit ?on_idle ~shards ~tickers ~seed f =
  with_wals shards (fun paths ->
      let fired = Array.init shards (fun _ -> Atomic.make 0) in
      let pool =
        Pool.create ~shards ~backpressure:(Block { max_wait_ms = 600_000 })
          ?on_idle
          ~init:(fun _ i ->
            let db = Db.create () in
            Market.install db;
            let sys = System.create db in
            ignore (System.attach_wal ~sync:true ?group_commit sys paths.(i));
            System.register_action sys "count" (fun _ _ ->
                Atomic.incr fired.(i));
            ignore
              (System.create_rule sys ~name:"price-watch"
                 ~monitor_classes:[ Market.stock_class ]
                 ~event:(Expr.eom ~cls:Market.stock_class "set_price")
                 ~condition:"true" ~action:"count" ());
            sys)
          ()
      in
      let result, sent = f pool (shard_market pool ~shards ~tickers ~seed) in
      for i = 0 to shards - 1 do
        ok (Pool.run_on pool i System.detach_wal)
      done;
      Pool.stop pool;
      let total_fired = Array.fold_left (fun a c -> a + Atomic.get c) 0 fired in
      if total_fired <> sent then
        failwith
          (Printf.sprintf "parity: %d fired for %d events sent" total_fired
             sent);
      result)

(* ------------------------------------------------------------------------- *)
(* E1: reactivity overhead (paper §3.2: "No overhead is incurred in the
   definition and use of [passive] objects")                                  *)
(* ------------------------------------------------------------------------- *)

let e1 () =
  header "E1: method dispatch overhead by object category (§3.2)";
  let mk_db ~reactive ~in_interface =
    let db = Db.create () in
    let events = if in_interface then [ ("poke", Schema.On_end) ] else [] in
    Db.define_class db
      (Schema.define "thing" ~reactive
         ~attrs:[ ("x", Value.Int 0) ]
         ~methods:[ ("poke", fun _ _ _ -> Value.Null) ]
         ~events);
    (db, Db.new_object db "thing")
  in
  let bench name (db, o) =
    row "  %-42s %10s\n" name
      (fmt_ns (ns_per_run name (fun () -> ignore (Db.send db o "poke" []))))
  in
  bench "passive object" (mk_db ~reactive:false ~in_interface:false);
  bench "reactive, method not in event interface"
    (mk_db ~reactive:true ~in_interface:false);
  bench "reactive, event generated, no consumers"
    (mk_db ~reactive:true ~in_interface:true);
  let subscribed enabled =
    let db, o = mk_db ~reactive:true ~in_interface:true in
    let sys = noop_system db in
    let r =
      System.create_rule sys ~monitor:[ o ] ~event:(Expr.eom ~cls:"thing" "poke")
        ~condition:"true" ~action:"noop" ()
    in
    if not enabled then System.disable sys r;
    (db, o)
  in
  bench "reactive, one subscribed rule (disabled)" (subscribed false);
  bench "reactive, one subscribed rule (firing)" (subscribed true)

(* ------------------------------------------------------------------------- *)
(* E2: subscription vs centralized rule checking (§3.5 advantage 1)           *)
(* ------------------------------------------------------------------------- *)

let e2 () =
  header "E2: subscription (Sentinel) vs centralized scan (ADAM), 10k events";
  row "  %6s  %12s  %12s  %14s  %14s\n" "#rules" "sentinel" "adam"
    "adam scans" "deliveries";
  let n_objects = 1000 and n_updates = 10_000 in
  let run_sentinel n_rules =
    let db, objs = employees n_objects in
    let sys = noop_system db in
    (* each rule monitors one distinct object *)
    for i = 0 to n_rules - 1 do
      watch_salary sys ~monitor:[ objs.(i mod n_objects) ]
    done;
    let ops = salary_ops (Prng.create 1) objs n_updates in
    Db.reset_stats db;
    let (), ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
    (ms, (Db.stats db).notifications)
  in
  let run_adam n_rules =
    let db, objs = employees n_objects in
    let adam = Baselines.Adam.create db in
    for i = 0 to n_rules - 1 do
      let target = objs.(i mod n_objects) in
      ignore
        (Baselines.Adam.add_rule adam
           ~name:(string_of_int i)
           ~active_class:"employee" ~meth:"set_salary"
           ~condition:(fun _ occ -> Oid.equal occ.Oodb.Types.source target)
           ~action:(fun _ _ -> ())
           ())
    done;
    let ops = salary_ops (Prng.create 1) objs n_updates in
    let before = Baselines.Adam.scans adam in
    let (), ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
    (ms, Baselines.Adam.scans adam - before)
  in
  List.iter
    (fun n ->
      let s_ms, deliveries = run_sentinel n in
      let a_ms, scans = run_adam n in
      row "  %6d  %12s  %12s  %14d  %14d\n" n (fmt_ms s_ms) (fmt_ms a_ms) scans
        deliveries)
    [ 10; 100; 1000 ]

(* ------------------------------------------------------------------------- *)
(* E3: rule sharing across classes (§3.5 advantage 2)                          *)
(* ------------------------------------------------------------------------- *)

let e3 () =
  header "E3: one shared rule over k classes vs k per-class Ode constraints";
  row "  %4s  %14s  %14s  %12s  %12s\n" "k" "defs(sentinel)" "defs(ode)"
    "sentinel" "ode";
  let instances_per_class = 50 and updates_per_class = 2_000 in
  let define_classes db k =
    List.init k (fun i ->
        let cls = Printf.sprintf "cls%d" i in
        Db.define_class db
          (Schema.define cls
             ~attrs:[ ("v", Value.Float 0.) ]
             ~methods:[ ("set_v", Workloads.Dsl.setter "v") ]
             ~events:[ ("set_v", Schema.On_end) ]);
        cls)
  in
  let populate db classes =
    List.concat_map
      (fun cls -> List.init instances_per_class (fun _ -> Db.new_object db cls))
      classes
  in
  let stream rng objs =
    List.init (updates_per_class * List.length objs / instances_per_class)
      (fun _ ->
        (Prng.choice rng (Array.of_list objs), "set_v", [ Value.Float 5. ]))
  in
  List.iter
    (fun k ->
      (* Sentinel: ONE rule object, subscribed to every class *)
      let db = Db.create () in
      let sys = noop_system db in
      let classes = define_classes db k in
      let objs = populate db classes in
      System.register_condition sys "neg" (fun db inst ->
          match inst.Detector.constituents with
          | [ occ ] -> Value.to_float (Db.get db occ.source "v") < 0.
          | _ -> false);
      ignore
        (System.create_rule sys ~name:"shared" ~monitor_classes:classes
           ~event:(Expr.eom "set_v")
           ~condition:"neg" ~action:"noop" ());
      let ops = stream (Prng.create 2) objs in
      let (), s_ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
      (* Ode: k duplicated constraint definitions, one per class *)
      let db2 = Db.create () in
      let ode = Baselines.Ode.create db2 in
      let classes2 = define_classes db2 k in
      List.iter
        (fun cls ->
          Baselines.Ode.declare_constraint ode ~cls ~name:("nonneg-" ^ cls)
            (fun db o -> Value.to_float (Db.get db o "v") >= 0.))
        classes2;
      let objs2 = populate db2 classes2 in
      let ops2 = stream (Prng.create 2) objs2 in
      let (), o_ms =
        time_ms (fun () ->
            List.iter
              (fun (o, m, args) -> ignore (Baselines.Ode.send ode o m args))
              ops2)
      in
      row "  %4d  %14d  %14d  %12s  %12s\n" k 1 k (fmt_ms s_ms) (fmt_ms o_ms))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------------- *)
(* E4: composite-event detection cost vs expression depth (§1 issue 3)        *)
(* ------------------------------------------------------------------------- *)

let occ_stream n =
  List.init n (fun i ->
      Oodb.Occurrence.make
        ~source:(Oid.of_int (1 + (i mod 3)))
        ~source_class:"c"
        ~meth:(Printf.sprintf "m%d" (i mod 3))
        ~modifier:Oodb.Types.After ~params:[] ~at:(i + 1))

let e4 () =
  header "E4: detection cost vs expression depth (10k occurrences)";
  row "  %6s  %12s  %12s  %12s\n" "depth" "or-chain" "and-chain" "seq-chain";
  let prim i = Expr.eom (Printf.sprintf "m%d" (i mod 3)) in
  let chain op depth =
    let rec build i = if i = 0 then prim 0 else op (build (i - 1)) (prim i) in
    build depth
  in
  let stream = occ_stream 10_000 in
  let measure e =
    let d = Detector.create ~on_signal:(fun _ -> ()) e in
    let (), ms = time_ms (fun () -> List.iter (Detector.feed d) stream) in
    ms
  in
  List.iter
    (fun depth ->
      row "  %6d  %12s  %12s  %12s\n" depth
        (fmt_ms (measure (chain Expr.disj depth)))
        (fmt_ms (measure (chain Expr.conj depth)))
        (fmt_ms (measure (chain Expr.seq depth))))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------------- *)
(* E5: parameter contexts (§3.3)                                              *)
(* ------------------------------------------------------------------------- *)

let e5 () =
  header "E5: conjunction detection by parameter context (10k occurrences)";
  row "  %-12s  %12s  %12s\n" "context" "time" "signals";
  let stream = occ_stream 10_000 in
  let e = Expr.conj (Expr.eom "m0") (Expr.eom "m1") in
  List.iter
    (fun ctx ->
      let d = Detector.create ~context:ctx ~on_signal:(fun _ -> ()) e in
      let (), ms = time_ms (fun () -> List.iter (Detector.feed d) stream) in
      row "  %-12s  %12s  %12d\n" (Context.to_string ctx) (fmt_ms ms)
        (Detector.signalled d))
    Context.all

(* ------------------------------------------------------------------------- *)
(* E6: the Salary-check workload on all three engines (§5.1)                  *)
(* ------------------------------------------------------------------------- *)

let e6 () =
  header "E6: Salary-check end-to-end (500 employees, 50 managers, 5k updates)";
  row "  %-10s  %12s  %12s  %12s\n" "engine" "time" "rejected" "defs";
  let managers = 50 and employees = 500 and n_updates = 5_000 in
  let employee_ok db emp =
    match Db.get db emp "mgr" with
    | Value.Obj m ->
      Value.to_float (Db.get db emp "salary")
      < Value.to_float (Db.get db m "salary")
    | _ -> true
  in
  (* ~10% of updates try to push an employee above every manager *)
  let updates rng (pop : Workloads.Payroll.population) =
    List.init n_updates (fun _ ->
        let violate = Prng.bool rng 0.1 in
        let nm = Array.length pop.managers
        and ne = Array.length pop.employees in
        let k = Prng.int rng (nm + ne) in
        let target, is_mgr =
          if k < nm then (pop.managers.(k), true)
          else (pop.employees.(k - nm), false)
        in
        let salary =
          if violate && not is_mgr then 50_000.
          else if is_mgr then 5000. +. Prng.float rng 5000.
          else 1000. +. Prng.float rng 3000.
        in
        (target, salary))
  in
  (* populate [db], run the updates through [send], print the engine's row *)
  let run_with engine ~defs send db =
    let pop =
      Workloads.Payroll.populate db (Prng.create 3) ~managers ~employees
    in
    let ops = updates (Prng.create 4) pop in
    let rejected = ref 0 in
    let (), ms =
      time_ms (fun () ->
          List.iter
            (fun (target, salary) ->
              match
                Transaction.atomically db (fun () ->
                    ignore (send target "set_salary" [ Value.Float salary ]))
              with
              | Ok () -> ()
              | Error (Oodb.Errors.Rule_abort _) -> incr rejected
              | Error e -> raise e)
            ops)
    in
    row "  %-10s  %12s  %12d  %12d\n" engine (fmt_ms ms) !rejected defs
  in
  (* Sentinel: one rule, class-level subscription *)
  (let db = payroll_db () in
   let sys = System.create db in
   System.register_condition sys "viol" (fun db inst ->
       match inst.Detector.constituents with
       | [ occ ] ->
         (not (Db.is_instance_of db occ.source "manager"))
         && not (employee_ok db occ.source)
       | _ -> false);
   ignore
     (System.create_rule sys ~name:"salary-check" ~monitor_classes:[ "employee" ]
        ~event:(Expr.eom ~cls:"employee" "set_salary")
        ~condition:"viol" ~action:"abort" ());
   run_with "sentinel" ~defs:1 (Db.send db) db);
  (* Ode: one constraint per class (employee side only is enough to catch
     the injected violations, but we declare both as Figure 11 does) *)
  (let db = payroll_db () in
   let ode = Baselines.Ode.create db in
   Baselines.Ode.declare_constraint ode ~cls:"employee" ~name:"lt-mgr"
     (fun db o ->
       Db.is_instance_of db o "manager" || employee_ok db o);
   Baselines.Ode.declare_constraint ode ~cls:"manager" ~name:"gt-emps"
     (fun _ _ -> true);
   run_with "ode" ~defs:2 (Baselines.Ode.send ode) db);
  (* ADAM: two rule objects, centralized dispatch *)
  let db = payroll_db () in
  let adam = Baselines.Adam.create db in
  ignore
    (Baselines.Adam.add_rule adam ~name:"emp-rule" ~active_class:"employee"
       ~meth:"set_salary"
       ~condition:(fun db occ ->
         (not (Db.is_instance_of db occ.Oodb.Types.source "manager"))
         && not (employee_ok db occ.Oodb.Types.source))
       ~action:(fun _ _ -> raise (Oodb.Errors.Rule_abort "Invalid Salary"))
       ());
  ignore
    (Baselines.Adam.add_rule adam ~name:"mgr-rule" ~active_class:"manager"
       ~meth:"set_salary"
       ~condition:(fun _ _ -> false)
       ~action:(fun _ _ -> ())
       ());
  run_with "adam" ~defs:2 (Db.send db) db

(* ------------------------------------------------------------------------- *)
(* E7: runtime rule churn vs schema rebuild (§1 issue 1, §3.4)                *)
(* ------------------------------------------------------------------------- *)

let e7 () =
  header "E7: adding/removing 100 rules against a live store of 10k objects";
  let n_objects = 10_000 and n_rules = 100 in
  (* Sentinel: create + delete rule objects online *)
  (let db, objs = employees n_objects in
   let sys = noop_system db in
   let (), add_ms =
     time_ms (fun () ->
         for i = 0 to n_rules - 1 do
           watch_salary sys ~name:(string_of_int i) ~monitor:[ objs.(i) ]
         done)
   in
   let rules = System.rules sys in
   let (), del_ms =
     time_ms (fun () -> List.iter (System.delete_rule sys) rules)
   in
   row "  %-22s  add %10s   remove %10s\n" "sentinel (online)" (fmt_ms add_ms)
     (fmt_ms del_ms));
  (* ADAM: also online *)
  (let db, _ = employees n_objects in
   let adam = Baselines.Adam.create db in
   let added = ref [] in
   let (), add_ms =
     time_ms (fun () ->
         for i = 0 to n_rules - 1 do
           added :=
             Baselines.Adam.add_rule adam ~name:(string_of_int i)
               ~active_class:"employee" ~meth:"set_salary"
               ~condition:(fun _ _ -> false)
               ~action:(fun _ _ -> ())
               ()
             :: !added
         done)
   in
   let (), del_ms =
     time_ms (fun () -> List.iter (Baselines.Adam.remove_rule adam) !added)
   in
   row "  %-22s  add %10s   remove %10s\n" "adam (online)" (fmt_ms add_ms)
     (fmt_ms del_ms));
  (* Ode: each addition is a schema rebuild revisiting every instance *)
  let db, _ = employees n_objects in
  let ode = Baselines.Ode.create db in
  let (), add_ms =
    time_ms (fun () ->
        for i = 0 to n_rules - 1 do
          ignore
            (Baselines.Ode.add_constraint_with_rebuild ode ~cls:"employee"
               ~name:(string_of_int i)
               (fun _ _ -> true))
        done)
  in
  row "  %-22s  add %10s   (each add revisits all %d instances)\n"
    "ode (rebuild)" (fmt_ms add_ms) n_objects

(* ------------------------------------------------------------------------- *)
(* E8: class-level vs instance-level rules (§4.7)                             *)
(* ------------------------------------------------------------------------- *)

let e8 () =
  header "E8: class-level vs instance-level rule, 10k updates over N objects";
  row "  %8s  %16s  %16s  %16s\n" "N" "class rule" "instance(10%)" "firings c/i";
  let n_updates = 10_000 in
  List.iter
    (fun n ->
      let build instance_fraction =
        let db, objs = employees n in
        let sys = noop_system db in
        (match instance_fraction with
        | None -> watch_salary sys ~monitor_classes:[ "employee" ]
        | Some frac ->
          let k = max 1 (n / frac) in
          watch_salary sys ~monitor:(Array.to_list (Array.sub objs 0 k)));
        let ops = salary_ops (Prng.create 5) objs n_updates in
        Db.reset_stats db;
        let (), ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
        (ms, (System.stats sys).actions_executed)
      in
      let c_ms, c_fired = build None in
      let i_ms, i_fired = build (Some 10) in
      row "  %8d  %16s  %16s  %9d/%d\n" n (fmt_ms c_ms) (fmt_ms i_ms) c_fired
        i_fired)
    [ 100; 1000; 10_000 ]

(* ------------------------------------------------------------------------- *)
(* E9: persistence of rules and events as first-class objects (§3.4, §4)      *)
(* ------------------------------------------------------------------------- *)

let e9 () =
  header "E9: save / load / rehydrate a store with first-class rule objects";
  let n_objects = 10_000 and n_rules = 50 in
  let db = payroll_db () in
  let sys = noop_system db in
  let objs =
    Array.init n_objects (fun i ->
        Db.new_object db "employee"
          ~attrs:[ ("name", Value.Str (string_of_int i)); ("salary", Value.Float 1.) ])
  in
  for i = 0 to n_rules - 1 do
    ignore
      (System.create_rule sys
         ~name:(string_of_int i)
         ~monitor:[ objs.(i) ]
         ~event:
           (Expr.conj
              (Expr.eom ~cls:"employee" "set_salary")
              (Expr.eom ~cls:"employee" "change_income"))
         ~condition:"true" ~action:"noop" ())
  done;
  let text, save_ms = time_ms (fun () -> Oodb.Persist.to_string db) in
  let (db2, sys2), load_ms =
    time_ms (fun () ->
        let db2 = payroll_db () in
        let sys2 = noop_system db2 in
        Oodb.Persist.of_string db2 text;
        (db2, sys2))
  in
  let (), rehydrate_ms = time_ms (fun () -> System.rehydrate sys2) in
  (* prove the reloaded rules still detect composite events *)
  ignore (Db.send db2 objs.(0) "set_salary" [ Value.Float 2. ]);
  ignore (Db.send db2 objs.(0) "change_income" [ Value.Float 3. ]);
  let fired =
    (System.rule_info sys2 (Option.get (System.find_rule sys2 "0")))
      .Sentinel.Rule.fired
  in
  row "  store: %d objects + %d composite-event rules, %d KiB serialized\n"
    n_objects n_rules
    (String.length text / 1024);
  row "  save %-12s load %-12s rehydrate %-12s\n" (fmt_ms save_ms)
    (fmt_ms load_ms) (fmt_ms rehydrate_ms);
  row "  reloaded rule fires on conjunction: %s\n"
    (if fired = 1 then "yes" else Printf.sprintf "NO (fired=%d)" fired)

(* ------------------------------------------------------------------------- *)
(* E10: inter-object, inter-class rule end-to-end (§2.1 Purchase)             *)
(* ------------------------------------------------------------------------- *)

let e10 () =
  header "E10: Purchase rule (conjunction spanning two classes), 50k ticks";
  let db = Db.create () in
  Market.install db;
  let sys = System.create db in
  let rng = Prng.create 6 in
  let market =
    Market.populate db rng ~stocks:100 ~indexes:5 ~portfolios:10
  in
  let ibm = market.stocks.(0) and dow = market.indexes.(0) in
  let parker = market.portfolios.(0) in
  System.register_condition sys "cheap-and-calm" (fun db _ ->
      Value.to_float (Db.get db ibm "price") < 80.
      && Value.to_float (Db.get db dow "change") < 3.4);
  System.register_action sys "buy" (fun db _ ->
      ignore (Db.send db parker "purchase" [ Value.Obj ibm; Value.Int 1 ]));
  ignore
    (System.create_rule sys ~name:"Purchase" ~monitor:[ ibm; dow ]
       ~event:
         (Expr.conj
            (Expr.eom ~cls:"stock" ~sources:[ ibm ] "set_price")
            (Expr.eom ~cls:"financial_info" ~sources:[ dow ] "set_value"))
       ~condition:"cheap-and-calm" ~action:"buy" ());
  let ops = Market.ticks rng market ~n:50_000 in
  Db.reset_stats db;
  let (), ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
  let info = System.rule_info sys (Option.get (System.find_rule sys "Purchase")) in
  row "  50k market ticks in %s (%d events generated, %d deliveries)\n"
    (fmt_ms ms) (Db.stats db).events_generated (Db.stats db).notifications;
  row "  conjunction detected %d times, condition passed %d times\n"
    info.Sentinel.Rule.triggered info.Sentinel.Rule.fired;
  row "  Parker's holdings: %s shares\n"
    (Value.to_string (Db.get db parker "shares"))

(* ------------------------------------------------------------------------- *)
(* E12: secondary-index ablation (substrate completeness)                     *)
(* ------------------------------------------------------------------------- *)

(* Query cost with and without indexes, then what the indexes cost: live
   words per entry (Gc.stat runs a full major collection, so the figure is
   deterministic) and build time, at unique keys and at 16 distinct keys,
   and promoted words per indexed Db.set.  Under BENCH_SMOKE the run exits
   1 when either index kind spends more than 10 words per entry at unique
   keys or 6 at 16 keys. *)
let e12 () =
  header "E12: query cost -- scan vs hash index vs ordered index (50k objects)";
  let n = 50_000 in
  let build ~keys =
    let db = payroll_db () in
    let rng = Prng.create 8 in
    for i = 0 to n - 1 do
      let name, salary =
        match keys with
        | None -> (string_of_int i, Prng.float rng 10_000.)
        | Some k -> (string_of_int (i mod k), float_of_int (i mod k))
      in
      ignore
        (Db.new_object db "employee"
           ~attrs:[ ("name", Value.Str name); ("salary", Value.Float salary) ])
    done;
    db
  in
  let eq_pred = Oodb.Query.Eq ("name", Value.Str "123") in
  let range_pred =
    Oodb.Query.And
      ( Oodb.Query.Ge ("salary", Value.Float 5000.),
        Oodb.Query.Lt ("salary", Value.Float 5050.) )
  in
  let measure db pred =
    let rows, ms = time_ms (fun () -> Oodb.Query.select db "employee" pred) in
    (ms, List.length rows)
  in
  (* live words per indexed object, and build time, for one index *)
  let index_cost db kind attr =
    let live () = (Gc.stat ()).Gc.live_words in
    let before = live () in
    let (), ms =
      time_ms (fun () -> Db.create_index db ~kind ~cls:"employee" ~attr ())
    in
    let after = live () in
    (* a use after the measurement keeps the database itself alive *)
    assert (Db.has_index db ~cls:"employee" ~attr);
    (float_of_int (after - before) /. float_of_int n, ms)
  in
  let db = build ~keys:None in
  let scan_eq, hits_eq = measure db eq_pred in
  let scan_rg, hits_rg = measure db range_pred in
  let hash_u = index_cost db `Hash "name" in
  let ord_u = index_cost db `Ordered "salary" in
  let ix_eq, hits_eq' = measure db eq_pred in
  let ix_rg, hits_rg' = measure db range_pred in
  assert (hits_eq = hits_eq' && hits_rg = hits_rg');
  row "  equality probe   scan %10s   hash index    %10s  (%d hit)\n"
    (fmt_ms scan_eq) (fmt_ms ix_eq) hits_eq;
  row "  range probe      scan %10s   ordered index %10s  (%d hits)\n"
    (fmt_ms scan_rg) (fmt_ms ix_rg) hits_rg;
  (* promoted words per indexed set, each attribute updated in turn *)
  let promoted_per_set attr value =
    let rng = Prng.create 12 in
    let oids = Array.of_list (Db.extent db "employee") in
    let sets = 20_000 in
    Gc.minor ();
    let p0 = (Gc.quick_stat ()).Gc.promoted_words in
    for i = 1 to sets do
      Db.set db (Prng.choice rng oids) attr (value rng i)
    done;
    Gc.minor ();
    ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int sets
  in
  let promo_hash =
    promoted_per_set "name" (fun _ i -> Value.Str (string_of_int (n + i)))
  in
  let promo_ord =
    promoted_per_set "salary" (fun rng _ ->
        Value.Float (Prng.float rng 10_000.))
  in
  let db16 = build ~keys:(Some 16) in
  let hash_16 = index_cost db16 `Hash "name" in
  let ord_16 = index_cost db16 `Ordered "salary" in
  row "  index memory     %22s  %22s\n" "hash" "ordered";
  let mem_row label (hw, hms) (ow, oms) =
    row "  %-14s %9.2f w/entry %9s  %9.2f w/entry %9s\n" label hw (fmt_ms hms)
      ow (fmt_ms oms)
  in
  mem_row "unique keys" hash_u ord_u;
  mem_row "16 keys" hash_16 ord_16;
  row "  promoted words per indexed Db.set: hash %.1f, ordered %.1f\n"
    promo_hash promo_ord;
  let words name (w, _) bound =
    { name; value = w; cmp = At_most; bound; detail = "live words per entry" }
  in
  check
    [
      words "hash index, unique keys" hash_u 10.;
      words "ordered index, unique keys" ord_u 10.;
      words "hash index, 16 keys" hash_16 6.;
      words "ordered index, 16 keys" ord_16 6.;
    ]

(* ------------------------------------------------------------------------- *)
(* E13: write-ahead-log overhead and recovery                                 *)
(* ------------------------------------------------------------------------- *)

let e13 () =
  header "E13: WAL overhead and recovery (10k transactional updates)";
  let n_updates = 10_000 in
  let run db objs =
    let rng = Prng.create 9 in
    for _ = 1 to n_updates do
      ok
        (Transaction.atomically db (fun () ->
             Db.set db (Prng.choice rng objs) "salary"
               (Value.Float (Prng.float rng 100.))))
    done
  in
  (let db, objs = employees 500 in
   let (), ms = time_ms (fun () -> run db objs) in
   row "  no journal            %10s\n" (fmt_ms ms));
  with_wals 1 (fun paths ->
      (* attach before populating so creations are in the log too; recovery
         below replays from an empty store (no snapshot needed) *)
      let db = payroll_db () in
      (* [~sync:false]: E13 measures journaling overhead (encoding + the
         write path), not the disk's fsync latency — E-recovery prices the
         durable path separately *)
      let wal = Oodb.Wal.attach ~sync:false db paths.(0) in
      let _, objs = employees ~db 500 in
      let (), ms = time_ms (fun () -> run db objs) in
      row "  WAL attached          %10s  (%d batches, %d entries)\n" (fmt_ms ms)
        (Oodb.Wal.batches_written wal)
        (Oodb.Wal.entries_written wal);
      Oodb.Wal.detach wal;
      let applied, rec_ms =
        time_ms (fun () -> Oodb.Wal.replay (payroll_db ()) paths.(0))
      in
      row "  crash recovery        %10s  (%d batches replayed)\n" (fmt_ms rec_ms)
        applied)

(* ------------------------------------------------------------------------- *)
(* E14: coupling-mode ablation (§4.4 rule attribute `mode`)                   *)
(* ------------------------------------------------------------------------- *)

let e14 () =
  header "E14: coupling modes -- same rule, 5k transactional updates";
  row "  %-10s  %12s  %12s\n" "mode" "time" "actions run";
  let n_updates = 5_000 in
  List.iter
    (fun coupling ->
      let db, objs = employees 100 in
      let sys = noop_system db in
      watch_salary sys ~coupling ~monitor_classes:[ "employee" ];
      let rng = Prng.create 10 in
      let (), ms =
        time_ms (fun () ->
            for _ = 1 to n_updates do
              ok
                (Transaction.atomically db (fun () ->
                     ignore
                       (Db.send db (Prng.choice rng objs) "set_salary"
                          [ Value.Float 1. ])))
            done)
      in
      row "  %-10s  %12s  %12d\n"
        (Sentinel.Coupling.to_string coupling)
        (fmt_ms ms) (System.stats sys).actions_executed)
    Sentinel.Coupling.all

(* ------------------------------------------------------------------------- *)
(* E15: session isolation overhead (substrate ablation)                       *)
(* ------------------------------------------------------------------------- *)

let e15 () =
  header "E15: strict-2PL session overhead, 20k single-write transactions";
  let n = 20_000 in
  (let db, objs = employees 100 in
   let rng = Prng.create 11 in
   let (), ms =
     time_ms (fun () ->
         for _ = 1 to n do
           Db.set db (Prng.choice rng objs) "salary" (Value.Float 1.)
         done)
   in
   row "  raw Db.set (no isolation)        %10s\n" (fmt_ms ms));
  (let db, objs = employees 100 in
   let rng = Prng.create 11 in
   let (), ms =
     time_ms (fun () ->
         for _ = 1 to n do
           ok
             (Transaction.atomically db (fun () ->
                  Db.set db (Prng.choice rng objs) "salary" (Value.Float 1.)))
         done)
   in
   row "  global transaction per write     %10s\n" (fmt_ms ms));
  let db, objs = employees 100 in
  let m = Oodb.Session.manager db in
  let alice = Oodb.Session.session m and bob = Oodb.Session.session m in
  let rng = Prng.create 11 in
  let conflicts_before = Oodb.Session.conflicts m in
  let (), ms =
    time_ms (fun () ->
        for i = 1 to n do
          let s = if i mod 2 = 0 then alice else bob in
          Oodb.Session.begin_ s;
          (match
             Oodb.Session.set s (Prng.choice rng objs) "salary" (Value.Float 1.)
           with
          | () -> Oodb.Session.commit s
          | exception Oodb.Errors.Lock_conflict _ -> Oodb.Session.abort s)
        done)
  in
  row "  2PL session per write (2 clients)%10s  (%d conflicts)\n" (fmt_ms ms)
    (Oodb.Session.conflicts m - conflicts_before)

(* ------------------------------------------------------------------------- *)
(* E-routing: discrimination-indexed delivery vs per-rule broadcast           *)
(* ------------------------------------------------------------------------- *)

(* One rule matches the workload's method; the rest are class-level rules on
   a method the workload never calls.  Broadcast pays every rule's detector
   on every event; the index probes only the (method, modifier) bucket, so
   throughput should be flat in the number of non-matching rules. *)
let e_routing () =
  header "E-routing: indexed vs broadcast delivery, 10k payroll updates";
  let n_updates = 10_000 in
  let sweep = [ 1; 10; 100; 1000 ] in
  let run routing n_rules () =
    let sys = noop_system ~routing (payroll_db ()) in
    watch_salary sys ~name:"match" ~monitor_classes:[ "employee" ];
    for i = 2 to n_rules do
      ignore
        (System.create_rule sys
           ~name:(Printf.sprintf "miss-%d" i)
           ~monitor_classes:[ "employee" ]
           ~event:(Expr.eom ~cls:"employee" "change_income")
           ~condition:"true" ~action:"noop" ())
    done;
    payroll_send_eps sys n_updates
  in
  row "  %6s  %14s  %14s  %8s  %10s  %8s\n" "rules" "broadcast ev/s"
    "indexed ev/s" "speedup" "probed" "offered";
  let rows =
    List.map
      (fun n_rules ->
        let r =
          trials
            [
              ("broadcast", run System.Broadcast n_rules);
              ("indexed", run System.Indexed n_rules);
            ]
        in
        let b_eps, b_stats = List.assoc "broadcast" r
        and i_eps, i_stats = List.assoc "indexed" r in
        let s = i_stats.(0) in
        assert (
          b_stats.(0).System.actions_executed = s.System.actions_executed);
        let speedup = paired ( /. ) i_eps b_eps in
        row "  %6d  %14.0f  %14.0f  %7.1fx  %10d  %8d\n" n_rules b_eps.median
          i_eps.median speedup.median s.System.candidates_probed
          s.System.leaves_offered;
        Obj
          ([ ("rules", Int n_rules) ]
          @ timed "broadcast_events_per_sec" b_eps
          @ timed "indexed_events_per_sec" i_eps
          @ timed "speedup" speedup
          @ [
              ("candidates_probed", Int s.System.candidates_probed);
              ("leaves_offered", Int s.System.leaves_offered);
              ("index_hits", Int s.System.index_hits);
            ]))
      sweep
  in
  write_bench ~experiment:"E-routing" "BENCH_routing.json"
    [
      ("updates", Int n_updates); ("population", Int 100);
      ( "workload",
        Str
          "payroll set_salary; 1 matching rule + (n-1) non-matching \
           class-level rules" );
      ("rows", List rows);
    ]

(* ------------------------------------------------------------------------- *)
(* E-recovery: WAL replay throughput and the price of durability              *)
(* ------------------------------------------------------------------------- *)

let e_recovery () =
  header "E-recovery: WAL replay throughput (banking workload)";
  let module Mem = Oodb.Storage.Mem in
  let module Banking = Workloads.Banking in
  let bank_db () =
    let db = Db.create () in
    Banking.install db;
    db
  in
  let log_path = "bank.wal" and snap_path = "bank.db" in
  let sizes = if smoke then [ 500; 2_000 ] else [ 1_000; 5_000; 20_000 ] in
  let run_txns db txns =
    List.iter
      (fun (acct, meth, args) ->
        ok
          (Transaction.atomically db (fun () ->
               ignore (Db.send db acct meth args))))
      txns
  in
  (* an in-memory log of [n] transactions, folded into a base snapshot by
     [Wal.compact] when [compact] *)
  let build ?(compact = false) n =
    let fs = Mem.create () in
    let storage = Mem.storage fs in
    let db = bank_db () in
    let wal = Oodb.Wal.attach ~storage ~sync:false db log_path in
    let rng = Prng.create 11 in
    let accts = Banking.populate db rng ~accounts:100 in
    run_txns db (Banking.transactions rng accts ~n ());
    if compact then Oodb.Wal.compact wal ~snapshot:snap_path;
    Oodb.Wal.detach wal;
    (String.length (Mem.durable fs log_path), storage)
  in
  let with_temp_wal f = with_wals 1 (fun paths -> f paths.(0)) in
  (* replay throughput over in-memory logs of increasing size *)
  let logs = List.map (fun n -> (n, build n)) sizes in
  let replay storage () =
    let (applied, discarded), ms =
      time_ms (fun () ->
          let db2 = bank_db () in
          let applied = Oodb.Wal.replay ~storage db2 log_path in
          (applied, (Db.stats db2).Oodb.Types.wal_batches_discarded))
    in
    assert (discarded = 0);
    (ms, applied)
  in
  let replays =
    trials
      (List.map
         (fun (n, (_, storage)) -> (string_of_int n, replay storage))
         logs)
  in
  row "  %12s  %10s  %10s  %10s  %14s\n" "transactions" "log bytes" "batches"
    "replay" "batches/s";
  let rows =
    List.map
      (fun (n, (bytes, _)) ->
        let ms, applied = List.assoc (string_of_int n) replays in
        let applied = applied.(0) in
        let bps = map (fun ms -> float_of_int applied /. ms *. 1000.) ms in
        row "  %12d  %10d  %10d  %10s  %14.0f\n" n bytes applied
          (fmt_ms ms.median) bps.median;
        Obj
          ([
             ("transactions", Int n); ("log_bytes", Int bytes);
             ("batches_replayed", Int applied);
           ]
          @ timed "replay_ms" ms @ timed "batches_per_sec" bps))
      logs
  in
  (* the price of the fsync-per-commit durability contract, on the real fs *)
  let durability_n = 1_000 in
  let durable_run sync () =
    with_temp_wal (fun path ->
        let db = bank_db () in
        let wal = Oodb.Wal.attach ~sync db path in
        let rng = Prng.create 3 in
        let accts = Banking.populate db rng ~accounts:50 in
        let txns = Banking.transactions rng accts ~n:durability_n () in
        let (), ms = time_ms (fun () -> run_txns db txns) in
        let fsyncs = (Db.stats db).Oodb.Types.wal_fsyncs in
        Oodb.Wal.detach wal;
        (ms, fsyncs))
  in
  let durability =
    trials [ ("sync", durable_run true); ("buffered", durable_run false) ]
  in
  let sync_ms, sync_fsyncs = List.assoc "sync" durability
  and nosync_ms, _ = List.assoc "buffered" durability in
  row "  durability: %d txns   fsync-per-commit %10s (%d fsyncs)   buffered %10s\n"
    durability_n (fmt_ms sync_ms.median) sync_fsyncs.(0)
    (fmt_ms nosync_ms.median);
  (* group commit: durable (sync:true) commits/sec on the real fs, with the
     coordinator coalescing 1 / 8 / 64 commits per WAL batch + fsync *)
  let group_n = if smoke then 300 else durability_n in
  let grouped_run g () =
    with_temp_wal (fun path ->
        let db = bank_db () in
        let wal =
          Oodb.Wal.attach ~sync:true
            ~group_commit:{ Oodb.Wal.max_batch = g; max_wait_us = max_int }
            db path
        in
        let rng = Prng.create 3 in
        let accts = Banking.populate db rng ~accounts:50 in
        Oodb.Wal.sync wal;
        let before_fsyncs = (Db.stats db).Oodb.Types.wal_fsyncs in
        let txns = Banking.transactions rng accts ~n:group_n () in
        let cps =
          rate group_n (fun () ->
              run_txns db txns;
              Oodb.Wal.sync wal)
        in
        let fsyncs = (Db.stats db).Oodb.Types.wal_fsyncs - before_fsyncs in
        Oodb.Wal.detach wal;
        (cps, fsyncs))
  in
  let groups = [ 1; 8; 64 ] in
  let grouped =
    trials (List.map (fun g -> (string_of_int g, grouped_run g)) groups)
  in
  let cps g = fst (List.assoc (string_of_int g) grouped) in
  row "  %12s  %12s  %10s  %8s\n" "group size" "commits/s" "time" "fsyncs";
  let group_rows =
    List.map
      (fun g ->
        let cps, fsyncs = List.assoc (string_of_int g) grouped in
        let ms = map (fun cps -> float_of_int group_n /. cps *. 1000.) cps in
        row "  %12d  %12.0f  %10s  %8d\n" g cps.median (fmt_ms ms.median)
          fsyncs.(0);
        Obj
          ([ ("group", Int g) ]
          @ timed "commits_per_sec" cps @ timed "ms" ms
          @ [ ("fsyncs", Int fsyncs.(0)) ]))
      groups
  in
  (* allocation: major-heap words allocated directly (not promoted) per
     durable commit of 64 sets, on the real fs.  OCaml puts every block
     above 256 words straight into the major heap, so short-lived ones on
     the per-batch path grow the heap between collections.  The counters
     are exact once synchronised, so this row is deterministic. *)
  let alloc_sets = 64 and alloc_commits = 200 in
  let direct_words_per_commit =
    with_temp_wal (fun path ->
        let db = bank_db () in
        let accts = Banking.populate db (Prng.create 5) ~accounts:alloc_sets in
        let wal = Oodb.Wal.attach ~sync:true db path in
        let commit c =
          ok
            (Transaction.atomically db (fun () ->
                 Array.iteri
                   (fun i a ->
                     Db.set db a "balance"
                       (Value.Float (float_of_int ((c * alloc_sets) + i))))
                   accts))
        in
        (* warm-up: reusable buffers reach their working size *)
        for c = 1 to 8 do
          commit c
        done;
        (* a full major cycle first brings the runtime's lazily merged
           allocation counters up to date; without it the reading drifts
           with whatever the heap did before this row *)
        let direct () =
          Gc.full_major ();
          let s = Gc.quick_stat () in
          s.Gc.major_words -. s.Gc.promoted_words
        in
        let d0 = direct () in
        for c = 1 to alloc_commits do
          commit c
        done;
        let d1 = direct () in
        Oodb.Wal.detach wal;
        (d1 -. d0) /. float_of_int alloc_commits)
  in
  row "  allocation: %d durable commits of %d sets   direct major \
       words/commit %.1f\n"
    alloc_commits alloc_sets direct_words_per_commit;
  (* compaction: recovery time against the same log before and after
     [Wal.compact] folds it into a base snapshot *)
  let recover_ms storage =
    snd
      (time_ms (fun () ->
           Oodb.Wal.recover ~storage (bank_db ()) ~snapshot:snap_path
             ~wal:log_path))
  in
  let compacted =
    trials
      (List.map
         (fun (n, (bytes, storage)) ->
           let bytes_after, compacted = build ~compact:true n in
           ( string_of_int n,
             fun () ->
               (recover_ms storage, (recover_ms compacted, bytes, bytes_after))
           ))
         logs)
  in
  row "  %12s  %10s  %10s  %14s  %12s\n" "transactions" "wal bytes"
    "recover" "compacted wal" "recover(c)";
  let compact_rows =
    List.map
      (fun n ->
        let before, sides = List.assoc (string_of_int n) compacted in
        let _, bytes, bytes_after = sides.(0) in
        let after = stat (Array.map (fun (ms, _, _) -> ms) sides) in
        row "  %12d  %10d  %10s  %14d  %12s\n" n bytes (fmt_ms before.median)
          bytes_after (fmt_ms after.median);
        Obj
          ([ ("transactions", Int n); ("wal_bytes", Int bytes) ]
          @ timed "recover_ms" before
          @ [ ("compacted_wal_bytes", Int bytes_after) ]
          @ timed "recover_compacted_ms" after))
      sizes
  in
  (* incremental checkpoints: at 10% dirty, the delta's cost must track the
     dirty set, not the store *)
  let checkpoints n () =
    let fs = Mem.create () in
    let storage = Mem.storage fs in
    let db = bank_db () in
    let wal = Oodb.Wal.attach ~storage ~sync:false db log_path in
    let rng = Prng.create 17 in
    let accts = Banking.populate db rng ~accounts:n in
    let (), full_ms =
      time_ms (fun () -> Oodb.Wal.checkpoint wal ~snapshot:snap_path)
    in
    let full_bytes = String.length (Mem.durable fs snap_path) in
    for i = 0 to (n / 10) - 1 do
      Db.set db accts.(i) "balance" (Value.Float (float_of_int i))
    done;
    let (), delta_ms =
      time_ms (fun () ->
          Oodb.Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path)
    in
    let delta_bytes = String.length (Mem.durable fs (snap_path ^ ".delta-1")) in
    Oodb.Wal.detach wal;
    (full_ms, (delta_ms, full_bytes, delta_bytes))
  in
  let scaling =
    trials (List.map (fun n -> (string_of_int n, checkpoints n)) sizes)
  in
  row "  %12s  %8s  %12s  %10s  %12s  %10s\n" "objects" "dirty" "full bytes"
    "full ckpt" "delta bytes" "delta ckpt";
  let scaling_rows =
    List.map
      (fun n ->
        let full_ms, sides = List.assoc (string_of_int n) scaling in
        let _, full_bytes, delta_bytes = sides.(0) in
        let delta_ms = stat (Array.map (fun (ms, _, _) -> ms) sides) in
        row "  %12d  %8d  %12d  %10s  %12d  %10s\n" n (n / 10) full_bytes
          (fmt_ms full_ms.median) delta_bytes (fmt_ms delta_ms.median);
        Obj
          ([
             ("objects", Int n); ("dirty", Int (n / 10));
             ("full_bytes", Int full_bytes);
           ]
          @ timed "full_ms" full_ms
          @ [ ("delta_bytes", Int delta_bytes) ]
          @ timed "delta_ms" delta_ms))
      sizes
  in
  write_bench ~experiment:"E-recovery" "BENCH_recovery.json"
    [
      ( "workload",
        Str
          "banking deposits/withdrawals, one transaction per batch, 100 \
           accounts" );
      ( "durability",
        Obj
          ([ ("transactions", Int durability_n) ]
          @ timed "fsync_per_commit_ms" sync_ms
          @ [ ("fsyncs", Int sync_fsyncs.(0)) ]
          @ timed "buffered_ms" nosync_ms) );
      ( "allocation",
        Obj
          [
            ("commits", Int alloc_commits); ("sets_per_commit", Int alloc_sets);
            ("direct_major_words_per_commit", Num direct_words_per_commit);
          ] );
      ("group_commit", List group_rows);
      ("compaction", List compact_rows);
      ("checkpoint_scaling", List scaling_rows);
      ("rows", List rows);
    ];
  (* group commit must actually buy durable throughput, and the delta
     checkpoint must be priced by the dirty set, not the store *)
  let largest = List.nth sizes (List.length sizes - 1) in
  let _, full_bytes, delta_bytes =
    (snd (List.assoc (string_of_int largest) scaling)).(0)
  in
  check
    [
      ratio_gate "group-64 vs group-1 durable commits/sec" (cps 64) (cps 1)
        5.;
      {
        name = "10%-dirty delta vs full snapshot bytes";
        value = float_of_int delta_bytes /. float_of_int full_bytes;
        cmp = Below;
        bound = 0.25;
        detail = Printf.sprintf "%d objects" largest;
      };
      {
        name = "direct major words per durable commit";
        value = direct_words_per_commit;
        cmp = At_most;
        bound = 32.;
        detail = "a block above 256 words on the WAL append path";
      };
    ]

(* ------------------------------------------------------------------------- *)
(* E-containment: fault injection — throughput with 0/1/10% failing rules     *)
(* ------------------------------------------------------------------------- *)

(* 100 class-level rules share every event; a fraction of them have actions
   that always raise.  Under [Contain] every failure is absorbed and
   dead-lettered, so the failure overhead is paid on every event; under
   [Quarantine 3] the breakers trip after 3 failures each and throughput
   recovers to near the healthy baseline.  Both routings, so containment
   cost is visible relative to each delivery path. *)
let e_containment () =
  header "E-containment: fault-injected rule execution, 100 shared rules";
  let n_updates = if smoke then 500 else 5_000 in
  let n_rules = 100 in
  let run routing policy bad_pct () =
    let sys =
      noop_system ~routing ~retry_backoff:(fun _ -> ()) (payroll_db ())
    in
    System.register_action sys "explode" (fun _ _ -> failwith "boom");
    let n_bad = n_rules * bad_pct / 100 in
    for i = 1 to n_rules do
      ignore
        (System.create_rule sys
           ~name:(Printf.sprintf "r-%d" i)
           ~policy ~monitor_classes:[ "employee" ]
           ~event:(Expr.eom ~cls:"employee" "set_salary")
           ~condition:"true"
           ~action:(if i <= n_bad then "explode" else "noop")
           ())
    done;
    payroll_send_eps sys n_updates
  in
  let cells =
    List.concat_map
      (fun (routing, rname) ->
        List.concat_map
          (fun (policy, pname) ->
            List.map
              (fun pct ->
                (Printf.sprintf "%s %s %d" rname pname pct, (rname, pname, pct),
                 run routing policy pct))
              [ 0; 1; 10 ])
          [
            (Error_policy.Contain, "contain");
            (Error_policy.Quarantine 3, "quarantine:3");
          ])
      [ (System.Indexed, "indexed"); (System.Broadcast, "broadcast") ]
  in
  let results = trials (List.map (fun (key, _, arm) -> (key, arm)) cells) in
  row "  %9s  %13s  %5s  %12s  %10s  %12s  %8s\n" "routing" "policy" "bad%"
    "events/s" "contained" "quarantined" "queued";
  let rows =
    List.map
      (fun (key, (rname, pname, pct), _) ->
        let eps, stats = List.assoc key results in
        let s = stats.(0) in
        row "  %9s  %13s  %4d%%  %12.0f  %10d  %12d  %8d\n" rname pname pct
          eps.median s.System.contained_failures s.System.quarantined_rules
          s.System.dead_letters;
        Obj
          ([
             ("routing", Str rname); ("policy", Str pname);
             ("failing_pct", Int pct);
           ]
          @ timed "events_per_sec" eps
          @ [
              ("contained_failures", Int s.System.contained_failures);
              ("quarantined_rules", Int s.System.quarantined_rules);
              ("dead_letters", Int s.System.dead_letters);
            ]))
      cells
  in
  write_bench ~experiment:"E-containment" "BENCH_containment.json"
    [
      ("updates", Int n_updates); ("rules", Int n_rules);
      ( "workload",
        Str
          "payroll set_salary; all rules share every event; bad% of rules \
           have always-raising actions" );
      ("rows", List rows);
    ]

(* ------------------------------------------------------------------------- *)
(* E-oltp: get/set/send on slot-array objects, and the shards axis            *)
(* ------------------------------------------------------------------------- *)

(* Wide passive classes (10/100/1000 attributes), 1k instances, hot
   attribute in the middle of the layout.  Accessors go through the
   pre-resolved slot API — the path rule conditions, the DSL and the rule
   scheduler actually use; string-keyed access is reported alongside.
   Under BENCH_SMOKE the run doubles as a CI regression gate: a query that
   fetches an object more than once per candidate, or a shards row off its
   bound, fails the process.  The cross-run floor on the get/set/send rows
   lives in CI (scripts/bench_compare.sh --fail-below). *)
let e_oltp () =
  header "E-oltp: slot-array objects (get/set/send micro-bench)";
  let rw_iters = if smoke then 100_000 else 1_000_000 in
  let send_iters = if smoke then 20_000 else 200_000 in
  let n_objects = if smoke then 200 else 1_000 in
  let sizes = [ 10; 100; 1000 ] in
  (* ops/s and heap bytes allocated per op for [iters] runs of [f] *)
  let measure iters f () =
    let bytes0 = Gc.allocated_bytes () in
    let ops = rate iters (fun () -> for _ = 1 to iters do f () done) in
    (ops, (Gc.allocated_bytes () -. bytes0) /. float_of_int iters)
  in
  let run size =
    let hot = hot_attr size in
    let db = wide_db size in
    let slot, next = wide_objects db size n_objects in
    let one = Value.Int 1 in
    let args = [ one ] in
    let rw f = measure rw_iters f in
    let r =
      trials
        [
          ("get", rw (fun () -> ignore (Db.slot_get db (next ()) slot)));
          ("set", rw (fun () -> Db.slot_set db (next ()) slot one));
          ("get_string", rw (fun () -> ignore (Db.get db (next ()) hot)));
          ("set_string", rw (fun () -> Db.set db (next ()) hot one));
          ( "send",
            measure send_iters (fun () ->
                ignore (Db.send db (next ()) "poke" args)) );
          (* object creation throughput, into a fresh store each trial *)
          ( "create",
            fun () ->
              let db = wide_db size in
              measure n_objects
                (fun () -> ignore (Db.new_object db "wide"))
                () );
        ]
    in
    let ops k = fst (List.assoc k r) and bytes k = (snd (List.assoc k r)).(0) in
    row "  %5d  get %11.0f/s (%3.0fB)  set %11.0f/s (%3.0fB)  send %10.0f/s (%3.0fB)\n"
      size (ops "get").median (bytes "get") (ops "set").median (bytes "set")
      (ops "send").median (bytes "send");
    Obj
      ([ ("attrs", Int size) ]
      @ timed "get_ops_per_sec" (ops "get")
      @ [ ("get_bytes_per_op", Num (bytes "get")) ]
      @ timed "set_ops_per_sec" (ops "set")
      @ [ ("set_bytes_per_op", Num (bytes "set")) ]
      @ timed "send_ops_per_sec" (ops "send")
      @ [ ("send_bytes_per_op", Num (bytes "send")) ]
      @ timed "get_string_ops_per_sec" (ops "get_string")
      @ timed "set_string_ops_per_sec" (ops "set_string")
      @ timed "create_ops_per_sec" (ops "create")
      @ [ ("create_bytes_per_obj", Num (bytes "create")) ])
  in
  row "  %5s\n" "attrs";
  let rows = List.map run sizes in
  (* Query.matches contract: one object fetch per candidate; a smoke run
     fails its gate if select regresses to per-attribute fetches. *)
  let query_probes =
    let db = payroll_db () in
    let rng = Prng.create 7 in
    ignore (Workloads.Payroll.populate db rng ~managers:10 ~employees:90);
    Oodb.Query.reset_probes ();
    ignore
      (Oodb.Query.select db "employee"
         (Oodb.Query.And
            ( Oodb.Query.Ge ("salary", Value.Float 0.),
              Oodb.Query.Has "name" )));
    let n = Oodb.Query.probes () in
    row "  query probes: %d object fetches for 100 candidates\n" n;
    n
  in
  (* Domain-parallel send throughput: one reactive rule per shard, sends
     routed by OID hash through a Shard_pool at shards={1,2,4}.  A 1-shard
     pool executes directly on the caller (no domain, no queue), so its row
     is the single-threaded engine plus the post wrapper — gated within 5%
     of the raw Db.send path measured in the same trials.  The scaling gate
     only applies when the machine has cores to scale onto. *)
  let iters = if smoke then 40_000 else 200_000 in
  let direct () =
    let db = System.db (payroll_watch ()) in
    let objs = Array.init 256 (fun _ -> Db.new_object db "employee") in
    let args = [ Value.Float 1. ] in
    ( rate iters (fun () ->
          for k = 0 to iters - 1 do
            ignore (Db.send db objs.(k land 255) "set_salary" args)
          done),
      () )
  in
  let shard_counts = [ 1; 2; 4 ] in
  (* the supervised arm prices the watchdog: same workload, same stride,
     plus a heartbeat-sweeping supervisor domain and the bounded-inbox
     accounting on every post *)
  let r =
    trials
      ((("direct", direct)
       :: List.map
            (fun n -> (string_of_int n, pool_send_eps ~iters n))
            shard_counts)
      @ [
          ( "supervised",
            pool_send_eps ~supervision:Pool.default_supervision ~iters 2 );
        ])
  in
  let eps k = fst (List.assoc k r) in
  let direct_eps = eps "direct" and shards1 = eps "1" and shards2 = eps "2" in
  let supervised2 = eps "supervised" in
  let vs_unsupervised = paired ( /. ) supervised2 shards2 in
  row "  direct (no pool) send %10.0f ev/s on %d core%s\n" direct_eps.median
    cores
    (if cores = 1 then "" else "s");
  let shard_rows =
    List.map
      (fun n ->
        let e = eps (string_of_int n) in
        let speedup = paired ( /. ) e shards1 in
        row "  shards=%d  send %10.0f ev/s  (%.2fx vs shards=1)\n" n e.median
          speedup.median;
        Obj
          ([ ("shards", Int n) ]
          @ timed "send_events_per_sec" e
          @ timed "speedup_vs_1" speedup))
      shard_counts
  in
  row "  shards=2 supervised %8.0f ev/s  (%.2fx vs unsupervised)\n"
    supervised2.median vs_unsupervised.median;
  write_bench ~experiment:"E-oltp" "BENCH_oltp.json"
    [
      ("rw_iters", Int rw_iters); ("send_iters", Int send_iters);
      ("objects", Int n_objects);
      ( "workload",
        Str
          "wide passive class, hot middle attribute via pre-resolved slot \
           handles; bytes are heap bytes allocated per op" );
      ("query_probe_per_candidate", Bool (query_probes = 100));
      ( "shards",
        Obj
          ([ ("send_iters", Int iters) ]
          @ timed "direct_send_events_per_sec" direct_eps
          @ [
              ("rows", List shard_rows);
              ( "supervised",
                Obj
                  ([ ("shards", Int 2) ]
                  @ timed "send_events_per_sec" supervised2
                  @ timed "ratio_vs_unsupervised" vs_unsupervised) );
            ]) );
      ("rows", List rows);
    ];
  (* the 1-shard pool must not tax the single-threaded path, adding a shard
     must actually scale where cores exist, and supervision must be close
     to free on the happy path *)
  check
    ([
       {
         name = "payroll select object fetches for 100 candidates";
         value = float_of_int query_probes;
         cmp = Exactly;
         bound = 100.;
         detail = "one fetch per candidate";
       };
       ratio_gate "shards=1 pool send vs direct send" shards1 direct_eps 0.95;
     ]
    @ on_multicore
        [
          ratio_gate "shards=2 vs shards=1 send" shards2 shards1 1.6;
          ratio_gate "supervised vs unsupervised shards=2 send" supervised2
            shards2 0.95;
        ])

(* ------------------------------------------------------------------------- *)
(* E-obs: observability overhead (metrics registry + cascade tracer)          *)
(* ------------------------------------------------------------------------- *)

(* Every instrumented call site shares one disabled-path shape: a
   [!Obs.armed] load and a branch, then a tail call of the raw
   implementation.  There is no un-instrumented binary to diff against, so
   the disabled overhead is *derived*: the measured cost of that gate
   primitive, times the gates an operation crosses, over the operation's own
   latency.  The off-vs-off spread of two interleaved arms is printed next
   to it as the noise floor — wall-clock diffs in the low single digits at
   these op rates are dominated by it, which is exactly why the CI gate runs
   on the derived number.  Enabled overhead (metrics, tracing) is measured
   directly. *)
let e_obs () =
  header "E-obs: observability overhead (metrics + tracing on the oltp micro-bench)";
  let iters = if smoke then 200_000 else 1_000_000 in
  let send_iters = if smoke then 40_000 else 200_000 in
  let gate_iters = if smoke then 10_000_000 else 50_000_000 in
  Obs.Metrics.disable ();
  Obs.Trace.disable ();
  let db = wide_db 100 in
  let slot, next = wide_objects db 100 200 in
  let one = Value.Int 1 in
  let args = [ one ] in
  (* name, iterations, operation, gates it crosses: slot_get/slot_set are
     one wrapper each; a send crosses its own wrapper plus the slot write
     inside the method, with one spare for the occurrence path of reactive
     receivers *)
  let ops =
    [
      ("get", iters, (fun () -> ignore (Db.slot_get db (next ()) slot)), 1);
      ("set", iters, (fun () -> Db.slot_set db (next ()) slot one), 1);
      ( "send",
        send_iters,
        (fun () -> ignore (Db.send db (next ()) "poke" args)),
        3 );
    ]
  in
  let modes =
    [
      ("off", `Off); ("off-again", `Off); ("metrics", `Metrics);
      ("trace", `Trace);
    ]
  in
  let in_mode mode n f () =
    (match mode with
    | `Off -> ()
    | `Metrics ->
      Obs.Metrics.enable ();
      Obs.Metrics.reset ()
    | `Trace ->
      Obs.Trace.enable ();
      Obs.Trace.clear ());
    let ops = rate n (fun () -> for _ = 1 to n do f () done) in
    Obs.Metrics.disable ();
    Obs.Trace.disable ();
    (ops, ())
  in
  (* The gate primitive (one ref load + branch), isolated from its
     measurement loop by subtracting an empty loop of the same trip count,
     and floored at a conservative 0.1 ns so a noisy subtraction cannot
     flatter the estimate to zero. *)
  let sink = ref 0 in
  let loop_ns body () =
    let (), ms = time_ms (fun () -> for _ = 1 to gate_iters do body () done) in
    (ms *. 1e6 /. float_of_int gate_iters, ())
  in
  let r =
    trials
      (List.concat_map
         (fun (m, mode) ->
           List.map (fun (o, n, f, _) -> (m ^ " " ^ o, in_mode mode n f)) ops)
         modes
      @ [
          ("empty", loop_ns (fun () -> ()));
          ("gated", loop_ns (fun () -> if !Obs.armed then incr sink));
        ])
  in
  let st k = fst (List.assoc k r) in
  let ops_in m o = st (m ^ " " ^ o) in
  List.iter
    (fun (m, _) ->
      row "  %-12s get %11.0f/s  set %11.0f/s  send %10.0f/s\n" m
        (ops_in m "get").median (ops_in m "set").median
        (ops_in m "send").median)
    modes;
  let gate_ns =
    paired (fun g e -> Float.max 0.1 (g -. e)) (st "gated") (st "empty")
  in
  let per_op f = List.map (fun (o, _, _, gates) -> (o, f o gates)) ops in
  let derived =
    per_op (fun o gates ->
        paired
          (fun ns base -> ns *. float_of_int gates /. (1e9 /. base) *. 100.)
          gate_ns (ops_in "off" o))
  in
  let vs_off f m = per_op (fun o _ -> paired f (ops_in "off" o) (ops_in m o)) in
  let noise =
    vs_off (fun base v -> Float.abs (v -. base) /. base *. 100.) "off-again"
  in
  let enabled = vs_off (fun base v -> (base /. v -. 1.) *. 100.) in
  let metrics_on = enabled "metrics" and trace_on = enabled "trace" in
  let pcts label prec stats =
    row "  %-29s%s\n" label
      (String.concat "  "
         (List.map
            (fun (o, s) -> Printf.sprintf "%s %.*f%%" o prec s.median)
            stats))
  in
  row "  gate primitive: %.2f ns/check\n" gate_ns.median;
  pcts "disabled overhead (derived):" 3 derived;
  pcts "off-vs-off noise floor:" 1 noise;
  pcts "metrics-on overhead:" 1 metrics_on;
  pcts "trace-on overhead:" 1 trace_on;
  (* A representative cascade for the CI artifact: banking deposit->withdraw
     in deferred coupling inside one explicit transaction, so the trace
     spans send, routing, detection, scheduling and firing. *)
  let sample_db = Db.create () in
  let sys = noop_system sample_db in
  Workloads.Banking.install sample_db;
  let rng = Prng.create 7 in
  let accounts = Workloads.Banking.populate sample_db rng ~accounts:4 in
  ignore
    (System.create_rule sys ~name:"depwit" ~coupling:Sentinel.Coupling.Deferred
       ~monitor_classes:[ Workloads.Banking.account_class ]
       ~event:
         (Expr.seq
            (Expr.eom ~cls:Workloads.Banking.account_class "deposit")
            (Expr.bom ~cls:Workloads.Banking.account_class "withdraw"))
       ~condition:"true" ~action:"noop" ());
  Obs.Trace.enable ();
  Obs.Trace.clear ();
  ok
    (Transaction.atomically sample_db (fun () ->
         ignore (Db.send sample_db accounts.(0) "deposit" [ Value.Float 10. ]);
         ignore
           (Db.send sample_db accounts.(0) "withdraw" [ Value.Float 5. ])));
  Obs.Trace.disable ();
  Out_channel.with_open_text "TRACE_sample.json" (fun oc ->
      output_string oc (Obs.Trace.to_chrome_json ()));
  row "  wrote TRACE_sample.json (%d spans)\n" (List.length (Obs.Trace.spans ()));
  let pct_obj stats = Obj (List.concat_map (fun (o, s) -> timed o s) stats) in
  write_bench ~experiment:"E-obs" "BENCH_obs.json"
    ([
       ("rw_iters", Int iters); ("send_iters", Int send_iters);
       ( "workload",
         Str
           "E-oltp wide class (100 attrs, slot layout); disabled overhead \
            derived as gate_ns x gates / op_ns; enabled overhead measured \
            directly; every figure is a median of interleaved trials" );
     ]
    @ timed "gate_ns" gate_ns
    @ [
        ("disabled_overhead_pct", pct_obj derived);
        ("noise_floor_pct", pct_obj noise);
        ("metrics_on_overhead_pct", pct_obj metrics_on);
        ("trace_on_overhead_pct", pct_obj trace_on);
        ( "rows",
          List
            (List.map
               (fun m ->
                 Obj
                   (("mode", Str m)
                   :: List.concat_map
                        (fun (o, _, _, _) ->
                          timed (o ^ "_ops_per_sec") (ops_in m o))
                        ops))
               [ "off"; "metrics"; "trace" ]) );
      ]);
  (* the disabled instrumentation must stay within the 2% budget on every
     hot operation *)
  check
    (List.map
       (fun (o, s) ->
         {
           name = "derived disabled overhead on " ^ o;
           value = s.median;
           cmp = At_most;
           bound = 2.;
           detail = "percent, median of trials";
         })
       derived)

(* ------------------------------------------------------------------------- *)
(* E-chaos: the price of supervision, restart latency, flood accounting      *)
(* ------------------------------------------------------------------------- *)

(* Three questions about the supervised shard pool: what the watchdog and
   the bounded-inbox accounting cost on the happy path (supervised vs plain
   throughput, interleaved trials to shave scheduler noise), how fast a
   killed shard is back (detection + teardown + fresh init, one kill per
   trial), and whether the flood counters stay honest under overload (every
   post is accepted, shed, or parked — none unaccounted). *)
let e_chaos () =
  header "E-chaos: shard supervision overhead, restart latency, flood accounting";
  let iters = if smoke then 20_000 else 100_000 in
  let r =
    trials
      [
        ("plain", pool_send_eps ~iters 2);
        ( "supervised",
          pool_send_eps ~supervision:Pool.default_supervision ~iters 2 );
      ]
  in
  let plain = fst (List.assoc "plain" r)
  and supervised = fst (List.assoc "supervised" r) in
  let ratio = paired ( /. ) supervised plain in
  row "  shards=2 plain      %10.0f ev/s (median of %d)\n" plain.median
    n_trials;
  row "  shards=2 supervised %10.0f ev/s (median of %d, %.2fx)\n"
    supervised.median n_trials ratio.median;
  let init _ _ = payroll_watch () in
  (* restart latency: kill -> heartbeat detects the dead worker -> teardown
     -> fresh init -> ready *)
  let restart_ms =
    let pool =
      Pool.create ~shards:2
        ~supervision:
          {
            Pool.default_supervision with
            heartbeat_interval_ms = 2;
            (* repeated deliberate kills must not exhaust the budget and
               degrade the shard mid-measurement *)
            max_restarts = 100;
          }
        ~init ()
    in
    let restarts () = (Pool.stats pool).Pool.shard_restarts.(0) in
    let kill () =
      let target = restarts () + 1 in
      let (), ms =
        time_ms (fun () ->
            pool_ok (Pool.kill pool 0);
            while restarts () < target || Pool.shard_state pool 0 <> `Ready do
              Unix.sleepf 0.0005
            done)
      in
      (ms, ())
    in
    let ms = fst (List.assoc "restart" (trials [ ("restart", kill) ])) in
    Pool.drain pool;
    Pool.stop pool;
    ms
  in
  row "  restart latency (kill -> ready, median of %d): %.1f ms\n" n_trials
    restart_ms.median;
  (* flood accounting: hold the worker, overflow a bounded inbox, and check
     the books — posted = accepted + shed, and every accepted job runs *)
  let flood_posted = 10_000 in
  let accepted, shed_count, ran =
    let pool =
      Pool.create ~shards:2 ~inbox_capacity:256 ~backpressure:Pool.Shed_newest
        ~init ()
    in
    let gate = Atomic.make false in
    pool_ok
      (Pool.post_on pool 0 (fun _ ->
           while not (Atomic.get gate) do
             Domain.cpu_relax ()
           done));
    let ran = Atomic.make 0 in
    let accepted = ref 0 and shed = ref 0 in
    for _ = 1 to flood_posted do
      match Pool.post_on pool 0 (fun _ -> Atomic.incr ran) with
      | Ok () -> incr accepted
      | Error _ -> incr shed
    done;
    Atomic.set gate true;
    Pool.drain pool;
    Pool.stop pool;
    (!accepted, !shed, Atomic.get ran)
  in
  row "  flood: %d posted = %d accepted + %d shed; %d accepted jobs ran\n"
    flood_posted accepted shed_count ran;
  write_bench ~experiment:"E-chaos" "BENCH_chaos.json"
    ([ ("send_iters", Int iters) ]
    @ timed "plain_events_per_sec" plain
    @ timed "supervised_events_per_sec" supervised
    @ timed "supervision_overhead_ratio" ratio
    @ timed "restart_ms" restart_ms
    @ [
        ( "flood",
          Obj
            [
              ("posted", Int flood_posted); ("accepted", Int accepted);
              ("shed", Int shed_count); ("ran", Int ran);
            ] );
      ]);
  check
    ([
       {
         name = "flood posts accounted";
         value = float_of_int (accepted + shed_count);
         cmp = Exactly;
         bound = float_of_int flood_posted;
         detail = "accepted + shed";
       };
       {
         name = "flood accepted jobs that ran";
         value = float_of_int ran;
         cmp = Exactly;
         bound = float_of_int accepted;
         detail = "every accepted job runs";
       };
       {
         name = "restart latency ms";
         value = restart_ms.median;
         cmp = At_most;
         bound = 1_000.;
         detail = "kill -> ready, median of trials";
       };
     ]
    @ on_multicore
        [
          ratio_gate "supervised vs plain shards=2 throughput" supervised plain
            0.90;
        ])

(* ------------------------------------------------------------------------- *)
(* E-ingest: batched ingestion pipeline                                       *)
(* ------------------------------------------------------------------------- *)

(* The batching claim: one transaction scope, one observability envelope,
   one WAL commit (+fsync), one route-key probe per distinct key and — across
   shards — one mailbox push per destination, amortized over the whole
   batch; the differential suite (test/test_ingest.ml) proves the semantics
   are untouched.  Cells are batch={1,8,64,256} x shards={1,2,4} over the
   seeded stock_market tick feed, every shard journaling fsync-per-commit
   like a durable streaming ingester.  Under BENCH_SMOKE the batch=64
   amortization and the cross-shard push coalescing are regression gates. *)
let e_ingest () =
  header
    "E-ingest: batched ingestion (vectorized send, route coalescing, \
     one message per shard)";
  let events = if smoke then 2_048 else 16_384 in
  let tickers = 64 in
  let run ~shards ~batch () =
    with_price_pool ~shards ~tickers ~seed:11 (fun pool market ->
        let n_batches = max 1 (events / batch) in
        let feed =
          Market.tick_batches (Prng.create 17) market
            ~tickers:(Array.length market.Market.stocks)
            ~rate:batch ~batches:n_batches
        in
        let total = n_batches * batch in
        let eps =
          rate total (fun () ->
              List.iter (fun evs -> pool_ok (Pool.ingest pool evs)) feed;
              Pool.drain pool)
        in
        let st = Pool.stats pool in
        if Array.exists (( <> ) 0) st.Pool.shard_failed then
          failwith "E-ingest: a shard contained failures";
        let stats =
          List.init shards (fun i -> System.stats (Pool.system pool i))
        in
        let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
        ( ( eps,
            ( sum (fun s -> s.System.coalesced_probes),
              st.Pool.mpsc_pushes,
              sum (fun s -> s.System.wal_fsyncs),
              total ) ),
          total ))
  in
  let cells =
    List.concat_map
      (fun shards -> List.map (fun batch -> (shards, batch)) [ 1; 8; 64; 256 ])
      [ 1; 2; 4 ]
  in
  let key (shards, batch) = Printf.sprintf "%d %d" shards batch in
  let r =
    trials
      (List.map
         (fun (shards, batch) -> (key (shards, batch), run ~shards ~batch))
         cells)
  in
  let eps shards batch = fst (List.assoc (key (shards, batch)) r) in
  let pushes shards batch =
    let _, pushes, _, _ = (snd (List.assoc (key (shards, batch)) r)).(0) in
    pushes
  in
  row "  %6s %6s  %12s  %10s  %10s  %8s  %8s\n" "shards" "batch" "ev/s"
    "vs batch=1" "coalesced" "pushes" "fsyncs";
  let rows =
    List.map
      (fun (shards, batch) ->
        let e, sides = List.assoc (key (shards, batch)) r in
        let coalesced, pushes, fsyncs, total = sides.(0) in
        let speedup = paired ( /. ) e (eps shards 1) in
        row "  %6d %6d  %12.0f  %9.2fx  %10d  %8d  %8d\n" shards batch e.median
          speedup.median coalesced pushes fsyncs;
        Obj
          ([
             ("shards", Int shards); ("batch", Int batch);
             ("events", Int total);
           ]
          @ timed "events_per_sec" e
          @ timed "speedup_vs_batch1" speedup
          @ [
              ("coalesced_probes", Int coalesced); ("mpsc_pushes", Int pushes);
              ("fsyncs", Int fsyncs);
            ]))
      cells
  in
  write_bench ~experiment:"E-ingest" "BENCH_ingest.json"
    [
      ("events", Int events); ("tickers", Int tickers);
      ( "workload",
        Str
          "stock_market tick batches (seeded PRNG), one reactive set_price \
           rule per shard, per-shard WAL attached fsync-per-commit; \
           Shard_pool.ingest = one transaction + one trace + one \
           route-coalescing scope per shard sub-batch, flushed as one \
           mailbox message per destination" );
      ("rows", List rows);
    ];
  (* batching must amortize the per-event fixed costs at least 3x on one
     shard, and ingest's one message per shard must cut mailbox traffic at
     least 8x *)
  check
    [
      ratio_gate "batch=64 vs batch=1 ingest on one shard" (eps 1 64)
        (eps 1 1) 3.;
      {
        name = "4-shard mailbox pushes, batch=1 over batch=64";
        value = float_of_int (pushes 4 1) /. float_of_int (pushes 4 64);
        cmp = At_least;
        bound = 8.;
        detail = Printf.sprintf "%d vs %d pushes" (pushes 4 1) (pushes 4 64);
      };
    ]

(* ------------------------------------------------------------------------- *)
(* E-net: streaming ingestion over the wire protocol — a TCP server fronting
   the pool, a fleet of protocol clients, and the slow-consumer books        *)
(* ------------------------------------------------------------------------- *)

let e_net () =
  header "E-net: wire-protocol streaming ingestion (clients x batch x shards)";
  let events = if smoke then 2_048 else 12_288 in
  let tickers = 64 in
  (* group-commit journal + the pool's durability hook: a shard seals (and
     fsyncs) whenever its mailbox drains, so a lone serial client pays one
     fsync per flush while a concurrent fleet shares one fsync per drained
     backlog — the axis the 16-client gate measures *)
  let on_idle _ sys =
    match System.wal sys with
    | Some _ ->
      (* commit delay: linger before sealing so a concurrent fleet's
         staggered arrivals pile up behind one fsync; a lone serial client
         just pays the window *)
      (try Unix.sleepf 0.0003 with Unix.Unix_error _ -> ());
      System.sync_wal sys
    | None -> ()
  in
  let run ~shards ~clients ~batch () =
    with_price_pool ~shards ~tickers ~seed:31 ~on_idle
      ~group_commit:{ Oodb.Wal.max_batch = 256; max_wait_us = 50_000 }
      (fun pool market ->
        let server = Net.Server.create ~pool () in
        let port = Net.Server.port server in
        let n_batches = max 1 (max 1 (events / clients) / batch) in
        let total = clients * n_batches * batch in
        let rtt_sum = Array.make clients 0. in
        let worker k () =
          let client =
            Net.Sentinel_client.connect
              ~client_name:(Printf.sprintf "bench-%d" k)
              ~buffer_max:(batch + 1) ~host:"127.0.0.1" ~port ()
          in
          Fun.protect
            ~finally:(fun () -> Net.Sentinel_client.close client)
            (fun () ->
              Market.tick_batches
                (Prng.create (101 + k))
                market
                ~tickers:(Array.length market.Market.stocks)
                ~rate:batch ~batches:n_batches
              |> List.iter (fun evs ->
                     List.iter (Net.Sentinel_client.send client) evs;
                     let (), ms =
                       time_ms (fun () ->
                           ignore (Net.Sentinel_client.flush client))
                     in
                     rtt_sum.(k) <- rtt_sum.(k) +. ms))
        in
        let eps =
          rate total (fun () ->
              List.init clients (fun k -> Thread.create (worker k) ())
              |> List.iter Thread.join;
              Pool.drain pool)
        in
        (* wire parity: every event sent was acked and ingested *)
        let ingested = (Net.Server.stats server).Net.Server.events_ingested in
        Net.Server.stop server;
        if ingested <> total then
          failwith
            (Printf.sprintf "E-net parity: %d ingested for %d events sent"
               ingested total);
        let rtt_ms =
          Array.fold_left ( +. ) 0. rtt_sum
          /. float_of_int (clients * n_batches)
        in
        ((eps, (rtt_ms, total)), total))
  in
  let cells =
    List.concat_map
      (fun shards ->
        List.concat_map
          (fun batch ->
            List.map (fun clients -> (shards, clients, batch)) [ 1; 4; 16 ])
          [ 1; 64 ])
      [ 1; 4 ]
  in
  let key (shards, clients, batch) =
    Printf.sprintf "%d %d %d" shards clients batch
  in
  let r =
    trials
      (List.map
         (fun ((shards, clients, batch) as c) ->
           (key c, run ~shards ~clients ~batch))
         cells)
  in
  let eps c = fst (List.assoc (key c) r) in
  row "  %6s %7s %6s  %12s  %11s  %10s\n" "shards" "clients" "batch" "ev/s"
    "vs 1-client" "flush-rtt";
  let rows =
    List.map
      (fun ((shards, clients, batch) as c) ->
        let e, sides = List.assoc (key c) r in
        let rtt = stat (Array.map fst sides) and total = snd sides.(0) in
        let speedup = paired ( /. ) e (eps (shards, 1, batch)) in
        row "  %6d %7d %6d  %12.0f  %10.2fx  %10s\n" shards clients batch
          e.median speedup.median (fmt_ms rtt.median);
        Obj
          ([
             ("shards", Int shards); ("clients", Int clients);
             ("batch", Int batch); ("events", Int total);
           ]
          @ timed "events_per_sec" e
          @ timed "flush_rtt_ms" rtt
          @ timed "speedup_vs_1client" speedup))
      cells
  in
  (* slow-consumer mini-run: a raw subscriber that never reads its socket
     against a tiny outlet — the shed books must balance exactly *)
  let shed_run () =
    let pool =
      Pool.create ~shards:2
        ~init:(fun _ _ ->
          let db = Db.create () in
          Market.install db;
          System.create db)
        ()
    in
    Fun.protect
      ~finally:(fun () -> Pool.stop pool)
      (fun () ->
        let market = shard_market pool ~shards:2 ~tickers:16 ~seed:41 in
        let server =
          Net.Server.create ~outlet_capacity:4 ~outlet_policy:Pool.Shed_newest
            ~so_sndbuf:4096 ~pool ()
        in
        Fun.protect
          ~finally:(fun () -> Net.Server.stop server)
          (fun () ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
                Unix.connect fd
                  (Unix.ADDR_INET
                     ( Unix.inet_addr_of_string "127.0.0.1",
                       Net.Server.port server ));
                ignore
                  (Net.Frame.write_fd fd
                     (Net.Frame.Hello
                        {
                          version = Net.Frame.version;
                          client = "bench-lazy";
                        }));
                (match Net.Frame.read_fd fd with
                | Net.Frame.Hello_ack _, _ -> ()
                | _ -> failwith "E-net shed: expected Hello_ack");
                ignore
                  (Net.Frame.write_fd fd
                     (Net.Frame.Subscribe
                        {
                          name = "bench-lazy";
                          classes = [ Market.stock_class ];
                          expr =
                            Events.Codec.encode
                              (Expr.eom ~cls:Market.stock_class "set_price");
                        }));
                (match Net.Frame.read_fd fd with
                | Net.Frame.Sub_ack _, _ -> ()
                | _ -> failwith "E-net shed: expected Sub_ack");
                (* bury the non-reading subscriber in notifications *)
                Market.tick_batches (Prng.create 5) market ~tickers:16
                  ~rate:100 ~batches:40
                |> List.iter (fun evs -> pool_ok (Pool.ingest pool evs));
                Pool.drain pool;
                let deadline = Obs.Clock.now_ns () +. 5e9 in
                let rec wait () =
                  let s = Net.Server.stats server in
                  if
                    (s.Net.Server.notifications_produced
                     = s.Net.Server.notifications_enqueued
                       + s.Net.Server.notifications_shed
                       + s.Net.Server.notifications_parked
                    && s.Net.Server.notifications_produced = 4_000)
                    || Obs.Clock.now_ns () > deadline
                  then s
                  else begin
                    Thread.delay 0.01;
                    wait ()
                  end
                in
                let s = wait () in
                ( s.Net.Server.notifications_produced,
                  s.Net.Server.notifications_enqueued,
                  s.Net.Server.notifications_shed,
                  s.Net.Server.notifications_parked ))))
  in
  let produced, enqueued, shed, parked = shed_run () in
  let exact = produced = enqueued + shed + parked in
  row "  slow consumer: produced %d = enqueued %d + shed %d + parked %d (%s)\n"
    produced enqueued shed parked
    (if exact then "exact" else "LEAK");
  write_bench ~experiment:"E-net" "BENCH_net.json"
    [
      ("events", Int events); ("tickers", Int tickers);
      ( "workload",
        Str
          "stock_market tick batches (seeded PRNG) sent by N concurrent \
           protocol clients over TCP to one server fronting an N-shard pool, \
           per-shard WAL attached fsync-per-commit, one reactive set_price \
           rule per shard; each client flush = one Send_many frame = one \
           partitioned cross-shard ingest, RTT measured per flush" );
      ("rows", List rows);
      ( "shed_accounting",
        Obj
          [
            ("produced", Int produced); ("enqueued", Int enqueued);
            ("shed", Int shed); ("parked", Int parked); ("exact", Bool exact);
          ] );
    ];
  (* a client fleet must actually pipeline — 16 clients at batch=1 on the
     4-shard pool at least 2x one RTT-bound client — and the slow-consumer
     books must balance to the notification *)
  check
    [
      ratio_gate "16 clients vs 1 client at batch=1, 4 shards"
        (eps (4, 16, 1))
        (eps (4, 1, 1))
        2.;
      {
        name = "slow-consumer notifications accounted";
        value = float_of_int (enqueued + shed + parked);
        cmp = Exactly;
        bound = float_of_int produced;
        detail = "enqueued + shed + parked = produced";
      };
      {
        name = "slow-consumer notifications shed";
        value = float_of_int shed;
        cmp = At_least;
        bound = 1.;
        detail = "the tiny outlet must overflow";
      };
    ]

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
    ("routing", e_routing);
    ("oltp", e_oltp);
    ("recovery", e_recovery);
    ("containment", e_containment);
    ("obs", e_obs);
    ("chaos", e_chaos);
    ("ingest", e_ingest);
    ("net", e_net);
  ]

let () =
  let selected =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) ->
      List.filter (fun (name, _) -> List.mem name names) experiments
    | _ -> experiments
  in
  if selected = [] then begin
    prerr_endline "unknown experiment; available:";
    List.iter (fun (name, _) -> prerr_endline ("  " ^ name)) experiments;
    exit 1
  end;
  print_endline "Sentinel reproduction benchmarks (see EXPERIMENTS.md)";
  List.iter (fun (_, f) -> f ()) selected;
  print_newline ();
  finish ()
