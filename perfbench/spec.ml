(* Workload definitions shared by the benchmark server, the generator and
   the in-process replays: schema, seeded data, rules and the seeded event
   stream.  Everything here is a pure function of (workload, seed, size), so
   two processes that call it agree on every object, rule and event. *)

module Db = Oodb.Db
module Value = Oodb.Value
module Oid = Oodb.Oid
module System = Sentinel.System
module Shard_pool = Sentinel.Shard_pool
module Market = Workloads.Stock_market
module Prng = Workloads.Prng
module Expr = Events.Expr

type t = {
  name : string;
  shards : int;
  stocks : int;
  indexes : int;  (** financial_info objects *)
  portfolios : int;
  tickers : int;  (** stocks the ticks are drawn from *)
  class_watch : bool;  (** one class-level price-watch rule *)
  watch_rules : int;  (** instance-level rules, one stock each (§4.7) *)
  purchase_pairs : int;  (** §2.1 Purchase rules, one (stock, index) each *)
  rate : int;
      (** events per second of [--seconds]: sizes the fixed event count,
          never measured *)
}

(* Events per Send_many frame. *)
let batch = 64

(* Subscription mask on the feeds: set_price(p) with p >= 170, about 5% of
   all events. *)
let notify_floor = 170.

let market_feed =
  {
    name = "market_feed";
    shards = 1;
    stocks = 100_000;
    indexes = 16;
    portfolios = 0;
    tickers = 256;
    class_watch = true;
    watch_rules = 0;
    purchase_pairs = 0;
    rate = 24_000;
  }

let sharded_feed = { market_feed with name = "sharded_feed"; shards = 2 }

let rule_storm =
  {
    name = "rule_storm";
    shards = 1;
    stocks = 20_000;
    indexes = 64;
    portfolios = 2_000;
    tickers = 20_000;
    class_watch = false;
    watch_rules = 2_000;
    purchase_pairs = 200;
    rate = 4_000;
  }

let all = [ market_feed; sharded_feed; rule_storm ]
let find name = List.find_opt (fun s -> s.name = name) all

(* The same shape at about 1/50 of the size, for the benchmark's own tests. *)
let tiny s =
  let d n = if n = 0 then 0 else max 1 (n / 50) in
  {
    s with
    stocks = d s.stocks;
    indexes = max 2 (d s.indexes);
    portfolios = d s.portfolios;
    tickers = min (d s.stocks) s.tickers;
    watch_rules = d s.watch_rules;
    purchase_pairs = d s.purchase_pairs;
  }

(* Fixed event count for a run of [seconds]: whole batches, at least two. *)
let events s ~seconds =
  let n = s.rate * seconds in
  batch * max 2 (n / batch)

(* --- seeded data ----------------------------------------------------------- *)

let symbol k = Printf.sprintf "STK%d" k
let initial_prices s ~seed =
  let rng = Prng.create ((seed * 7919) + 104_729) in
  Array.init s.stocks (fun _ -> 20. +. Prng.float rng 160.)

let owner s oid = Oid.to_int oid mod s.shards

(* Objects of the workload living on one shard, in global index order:
   stock k, index j and portfolio p go to shard (k|j|p) mod shards. *)
type placed = {
  p_stocks : (int * Oid.t) list;
  p_indexes : (int * Oid.t) list;
  p_portfolios : (int * Oid.t) list;
}

let populate s ~prices ~shard db =
  let mine n f =
    List.filter_map
      (fun k -> if k mod s.shards = shard then Some (k, f k) else None)
      (List.init n Fun.id)
  in
  let p_stocks =
    mine s.stocks (fun k ->
        Db.new_object db Market.stock_class
          ~attrs:[ ("symbol", Value.Str (symbol k)); ("price", Value.Float prices.(k)) ])
  in
  let p_indexes =
    mine s.indexes (fun j ->
        Db.new_object db Market.financial_info_class
          ~attrs:[ ("name", Value.Str (Printf.sprintf "IDX%d" j)) ])
  in
  let p_portfolios =
    mine s.portfolios (fun p ->
        Db.new_object db Market.portfolio_class
          ~attrs:[ ("owner", Value.Str (Printf.sprintf "owner%d" p)) ])
  in
  Db.create_index db ~kind:`Ordered ~cls:Market.stock_class ~attr:"price" ();
  Db.create_index db ~kind:`Hash ~cls:Market.stock_class ~attr:"symbol" ();
  { p_stocks; p_indexes; p_portfolios }

let assemble placed =
  let gather f =
    let all = List.concat_map f placed in
    let a = Array.make (List.length all) (Oid.of_int 0) in
    List.iter (fun (k, oid) -> a.(k) <- oid) all;
    a
  in
  {
    Market.stocks = gather (fun p -> p.p_stocks);
    indexes = gather (fun p -> p.p_indexes);
    portfolios = gather (fun p -> p.p_portfolios);
  }

(* --- rules ----------------------------------------------------------------- *)

(* Set by a traced run: rule actions report their duration (us) to it. *)
let action_timer : (float -> unit) option ref = ref None

let timed f =
  match !action_timer with
  | None -> f ()
  | Some record ->
    let t0 = Obs.Clock.now_us () in
    f ();
    record (Obs.Clock.now_us () -. t0)

let purchase_stock s (m : Market.market) j =
  m.stocks.(j * (s.stocks / max 1 s.purchase_pairs))

let purchase_index (m : Market.market) j = m.indexes.(j mod Array.length m.indexes)

let purchase_portfolio s (m : Market.market) j =
  m.portfolios.(j * (s.portfolios / max 1 s.purchase_pairs))

let watch_stock s (m : Market.market) k = m.stocks.(k * (s.stocks / max 1 s.watch_rules))

let price_watch_name = "price-watch"
let watch_name k = Printf.sprintf "watch-%d" k
let purchase_name j = Printf.sprintf "purchase-%d" j

let purchase_expr =
  Expr.conj
    (Expr.eom ~cls:Market.stock_class "set_price")
    (Expr.eom ~cls:Market.financial_info_class "set_value")

(* IF stock!GetPrice < 80 and index!Change < 3.4, read from the instance's
   recorded parameters. *)
let purchase_cond _db (inst : Events.Detector.instance) =
  let param meth i =
    List.find_map
      (fun (o : Oodb.Occurrence.t) ->
        if o.meth = meth then List.nth_opt o.params i else None)
      (List.rev inst.constituents)
  in
  match (param "set_price" 0, param "set_value" 1) with
  | Some (Value.Float p), Some (Value.Float c) -> p < 80. && c < 3.4
  | _ -> false

(* Install the workload's rules on the system of [shard]; a rule lives on
   the shard owning its first monitored object. *)
let install_rules s (m : Market.market) ~shard sys =
  System.register_action sys "count" (fun _ _ -> timed ignore);
  System.register_condition sys "purchase_cond" purchase_cond;
  if s.class_watch then
    ignore
      (System.create_rule sys ~name:price_watch_name
         ~monitor_classes:[ Market.stock_class ]
         ~event:(Expr.eom ~cls:Market.stock_class "set_price")
         ~condition:"true" ~action:"count" ());
  for k = 0 to s.watch_rules - 1 do
    let stock = watch_stock s m k in
    if owner s stock = shard then
      ignore
        (System.create_rule sys ~name:(watch_name k) ~monitor:[ stock ]
           ~event:(Expr.eom ~cls:Market.stock_class "set_price")
           ~condition:"true" ~action:"count" ())
  done;
  for j = 0 to s.purchase_pairs - 1 do
    let stock = purchase_stock s m j and index = purchase_index m j in
    let portfolio = purchase_portfolio s m j in
    if owner s stock = shard then begin
      let action = purchase_name j in
      System.register_action sys action (fun db _ ->
          timed (fun () ->
              ignore
                (Db.send db portfolio "purchase" [ Value.Obj stock; Value.Int 10 ])));
      ignore
        (System.create_rule sys ~name:action ~monitor:[ stock; index ]
           ~event:purchase_expr ~condition:"purchase_cond" ~action
           ())
    end
  done

let price_mask =
  Expr.eom ~cls:Market.stock_class
    ~filters:[ { Expr.pf_index = 0; pf_cmp = Expr.Cge; pf_value = Value.Float notify_floor } ]
    "set_price"

(* The connection's subscription: the price mask on the feeds; on
   rule_storm a Purchase-shaped composite, any stock dropping below 21 and
   the first index moving, which fires a few hundred times per run. *)
let subscription s (m : Market.market) =
  if s.purchase_pairs > 0 then
    ( [ Market.stock_class; Market.financial_info_class ],
      Expr.conj
        (Expr.eom ~cls:Market.stock_class
           ~filters:[ { Expr.pf_index = 0; pf_cmp = Expr.Clt; pf_value = Value.Float 21. } ]
           "set_price")
        (Expr.eom ~cls:Market.financial_info_class ~sources:[ purchase_index m 0 ] "set_value") )
  else ([ Market.stock_class ], price_mask)

(* --- the event stream ------------------------------------------------------ *)

let stream s (m : Market.market) ~seed ~events =
  Market.tick_batches
    (Prng.create ((seed * 31) + 7))
    m ~tickers:s.tickers ~rate:batch ~batches:(events / batch)

(* One point query and one narrow price range per flush.  The range is 0.02
   wide on a 0.01 grid, about a dozen rows of 100k stocks. *)
type query = Point of int | Range of float * float

let queries s ~seed ~n =
  let rng = Prng.create ((seed * 131) + 3) in
  List.init n (fun _ ->
      let k = Prng.int rng s.tickers in
      let lo = 20. +. (float_of_int (Prng.int rng 16_000) /. 100.) in
      (Point k, Range (lo, lo +. 0.02)))

let query_pred = function
  | Point k -> Oodb.Query.Eq ("symbol", Value.Str (symbol k))
  | Range (lo, hi) ->
    Oodb.Query.And (Ge ("price", Value.Float lo), Lt ("price", Value.Float hi))

(* --- engine set-up --------------------------------------------------------- *)

let group_commit = { Oodb.Wal.max_batch = 256; max_wait_us = 50_000 }
let wal_path dir i = Filename.concat dir (Printf.sprintf "shard%d.wal" i)
let snap_path dir i = Filename.concat dir (Printf.sprintf "shard%d.snap" i)

let fresh_db () =
  let db = Db.create () in
  Market.install db;
  let sys = System.create db in
  (db, sys)

(* The pool the server fronts: populate, index, rules, WAL attach and a
   full snapshot, per shard (no journal without [dir]).  At one shard every
   commit fsyncs (inline execution has no idle point to seal a group); at
   more, a group-commit journal is sealed from the pool's idle hook.
   [~explicit_sync] leaves the group-commit journal to a traced replay that
   calls [System.sync_wal] itself after every flush. *)
let create_pool ?(rules = true) ?(explicit_sync = false) ?dir s ~seed =
  let on_idle _ sys =
    match System.wal sys with Some _ -> System.sync_wal sys | None -> ()
  in
  let pool =
    Shard_pool.create ~shards:s.shards
      ~backpressure:(Block { max_wait_ms = 600_000 })
      ?on_idle:(if s.shards > 1 && not explicit_sync then Some on_idle else None)
      ~init:(fun _ _ -> snd (fresh_db ()))
      ()
  in
  let run i f =
    match Shard_pool.run_on pool i f with Ok v -> v | Error e -> raise e
  in
  let prices = initial_prices s ~seed in
  let placed =
    List.init s.shards (fun i ->
        run i (fun sys -> populate s ~prices ~shard:i (System.db sys)))
  in
  let market = assemble placed in
  for i = 0 to s.shards - 1 do
    run i (fun sys ->
        if rules then install_rules s market ~shard:i sys;
        match dir with
        | None -> ()
        | Some dir ->
          ignore
            (if s.shards > 1 || explicit_sync then
               System.attach_wal ~sync:true ~group_commit sys (wal_path dir i)
             else System.attach_wal ~sync:true sys (wal_path dir i));
          System.checkpoint ~mode:`Full sys ~snapshot:(snap_path dir i))
  done;
  (pool, market)

(* Recover every shard's snapshot + log into fresh databases. *)
let recover s ~dir =
  Array.init s.shards (fun i ->
      let db, _ = fresh_db () in
      ignore (Oodb.Wal.recover db ~snapshot:(snap_path dir i) ~wal:(wal_path dir i));
      db)

(* --- manifest: the server's OIDs, for the generator ------------------------ *)

let write_manifest path (m : Market.market) =
  let oc = open_out path in
  let line a =
    output_string oc
      (String.concat " " (Array.to_list (Array.map (fun o -> string_of_int (Oid.to_int o)) a)));
    output_char oc '\n'
  in
  line m.stocks;
  line m.indexes;
  line m.portfolios;
  close_out oc

let read_manifest path =
  let ic = open_in path in
  let line () =
    match input_line ic with
    | "" -> [||]
    | l ->
      Array.of_list
        (List.map (fun w -> Oid.of_int (int_of_string w)) (String.split_on_char ' ' l))
  in
  let stocks = line () in
  let indexes = line () in
  let portfolios = line () in
  close_in ic;
  { Market.stocks; indexes; portfolios }
