(* The generator: spawns the benchmark server, runs the closed loop over one
   Net.Sentinel_client connection, checks every output, kills the server
   and recovers its files. *)

module Client = Net.Sentinel_client
module Market = Workloads.Stock_market
module Oid = Oodb.Oid
module Value = Oodb.Value
module Db = Oodb.Db

type opts = {
  spec : Spec.t;
  seed : int;
  seconds : int;
  trace : bool;
  tiny : bool;
  workdir : string;
  fault : string option;  (** a deliberately broken run, for the tests *)
}

let now = Unix.gettimeofday
(* set-ups per run; setup_s is their median.  A traced run reports no
   setup_s and starts the server once. *)
let setups o = if o.tiny || o.trace then 1 else 5

(* --- keys: events and notified instances, matched on (oid, params) -------- *)

let occ_key oid meth params =
  Printf.sprintf "%d:%s:%s" oid meth
    (String.concat "," (List.map Oodb.Persist.encode_value params))

let instance_key (inst : Events.Detector.instance) =
  List.map
    (fun (o : Oodb.Occurrence.t) -> occ_key (Oid.to_int o.source) o.meth o.params)
    inst.constituents
  |> List.sort compare |> String.concat ";"

(* --- the generator's model of the server's state -------------------------- *)

(* The generator is the only writer of stock prices and index values, so
   after each acked batch it knows what every query must return and what
   recovery must restore. *)
type model = {
  slot : (int, [ `Stock of int | `Index of int ]) Hashtbl.t;
  prices : float array;
  index_vals : Value.t list array;
  stock_written : bool array;
  index_written : bool array;
}

let model (m : Market.market) prices =
  let slot = Hashtbl.create (Array.length m.stocks) in
  Array.iteri (fun k o -> Hashtbl.replace slot (Oid.to_int o) (`Stock k)) m.stocks;
  Array.iteri (fun j o -> Hashtbl.replace slot (Oid.to_int o) (`Index j)) m.indexes;
  {
    slot;
    prices = Array.copy prices;
    index_vals = Array.make (Array.length m.indexes) [];
    stock_written = Array.make (Array.length m.stocks) false;
    index_written = Array.make (Array.length m.indexes) false;
  }

let apply md (oid, meth, params) =
  match (Hashtbl.find_opt md.slot (Oid.to_int oid), meth, params) with
  | Some (`Stock k), "set_price", [ Value.Float p ] ->
    md.prices.(k) <- p;
    md.stock_written.(k) <- true
  | Some (`Index j), "set_value", _ ->
    md.index_vals.(j) <- params;
    md.index_written.(j) <- true
  | _ -> invalid_arg "Drive.apply: event outside the workload"

(* Rows a query must return under the model, as sorted (oid, price). *)
let expected_rows md (m : Market.market) = function
  | Spec.Point k -> [ (Oid.to_int m.stocks.(k), md.prices.(k)) ]
  | Spec.Range (lo, hi) ->
    let acc = ref [] in
    Array.iteri
      (fun k p -> if p >= lo && p < hi then acc := (Oid.to_int m.stocks.(k), p) :: !acc)
      md.prices;
    List.sort compare !acc

let row_price attrs =
  match List.assoc_opt "price" attrs with
  | Some v -> ( match Oodb.Persist.decode_value v with Value.Float p -> p | _ -> nan)
  | None -> nan

(* --- accounting ----------------------------------------------------------- *)

type books = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let check books ~what ~attempted ~failed =
  books.attempted <- books.attempted + attempted;
  books.failed <- books.failed + failed;
  if failed > 0 then
    books.notes <- Printf.sprintf "%s: %d of %d failed" what failed attempted :: books.notes

(* Every sent event acked exactly once: each Ack must carry its batch's
   size, and the server's own ingest count must equal the acked total. *)
let check_acks books ~sent ~acked ~ingested =
  let lost =
    Array.fold_left ( + ) 0 (Array.mapi (fun b n -> abs (n - sent.(b))) acked)
  in
  let total = Array.fold_left ( + ) 0 sent in
  let acked_total = Array.fold_left ( + ) 0 acked in
  check books ~what:"acks" ~attempted:total
    ~failed:(min total (lost + abs (ingested - acked_total)))

(* Received notifications against the expected multiset: a missing or an
   extra instance is one failure each. *)
let check_notifies books ~expected ~received =
  let count tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
  let exp = Hashtbl.create 1024 and got = Hashtbl.create 1024 in
  List.iter (fun k -> Hashtbl.replace exp k (count exp k + 1)) expected;
  List.iter (fun k -> Hashtbl.replace got k (count got k + 1)) received;
  let missing = ref 0 and extra = ref 0 in
  Hashtbl.iter (fun k n -> missing := !missing + max 0 (n - count got k)) exp;
  Hashtbl.iter (fun k n -> extra := !extra + max 0 (n - count exp k)) got;
  check books ~what:"notifications"
    ~attempted:(List.length expected + !extra)
    ~failed:(!missing + !extra)

(* --- server life cycle ----------------------------------------------------- *)

let server_args o dir =
  [ "serve"; "--workload"; o.spec.Spec.name; "--seed"; string_of_int o.seed; "--dir"; dir ]
  @ if o.tiny then [ "--tiny" ] else []

(* Spawn a server and connect; the set-up time runs from the spawn to the
   client's Hello_ack. *)
let start_server o dir =
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let t0 = now () in
  let child = Proc.spawn Sys.executable_name (server_args o dir) in
  match String.split_on_char ' ' (input_line child.Proc.stdout_r) with
  | [ "READY"; port ] ->
    let client =
      Client.connect ~client_name:"perfbench" ~buffer_max:(Spec.batch + 1)
        ~max_attempts:1 ~host:"127.0.0.1" ~port:(int_of_string port) ()
    in
    (child, client, int_of_string port, now () -. t0)
  | _ | (exception End_of_file) ->
    Proc.kill child;
    failwith "benchmark server failed to start"

(* Row count per Rows frame, read off a raw connection replaying [qs]. *)
let rows_per_frame ~port qs =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Net.Frame.write_fd fd (Hello { version = Net.Frame.version; client = "rows" }));
      ignore (Net.Frame.read_fd fd);
      let frames = ref 0 and rows = ref 0 in
      List.iter
        (fun q ->
          ignore
            (Net.Frame.write_fd fd
               (Query
                  {
                    cls = Market.stock_class;
                    pred = Oodb.Query_parser.to_syntax (Spec.query_pred q);
                  }));
          let rec collect () =
            match Net.Frame.read_fd fd with
            | Net.Frame.Rows { rows = r }, _ ->
              incr frames;
              rows := !rows + List.length r;
              collect ()
            | _ -> ()
          in
          collect ())
        qs;
      float_of_int !rows /. float_of_int (max 1 !frames))

(* --- the in-process oracle for rule_storm ---------------------------------- *)

(* Replay the same stream through one in-process engine: per-rule firing
   counts and the subscription's instances the server must match. *)
let oracle spec ~seed batches =
  let pool, market = Spec.create_pool spec ~seed in
  let sys = Sentinel.Shard_pool.system pool 0 in
  let classes, expr = Spec.subscription spec market in
  let seen = ref [] in
  Sentinel.System.register_action sys "oracle-sub" (fun _ inst ->
      seen := instance_key inst :: !seen);
  ignore
    (Sentinel.System.create_rule sys ~name:"oracle-sub" ~monitor_classes:classes
       ~event:expr ~condition:"true" ~action:"oracle-sub" ());
  Array.iter
    (fun evs ->
      match Sentinel.System.ingest sys evs with
      | Ok _ -> ()
      | Error e -> raise e)
    batches;
  let fired =
    List.filter_map
      (fun oid ->
        let r = Sentinel.System.rule_info sys oid in
        if r.Sentinel.Rule.name = "oracle-sub" then None
        else Some (r.Sentinel.Rule.name, r.Sentinel.Rule.fired))
      (Sentinel.System.rules sys)
  in
  Sentinel.Shard_pool.stop pool;
  (fired, !seen)

(* --- one wire run ---------------------------------------------------------- *)

type result = {
  events : int;
  timed_events : int;
  steal : float;
  metrics : (string * float * string) list;  (* end to end: name, value, unit *)
  wire : (string * float * string) list;  (* per layer: the wire run's figures *)
  books : books;
  batches : (Oid.t * string * Value.t list) list array;
}

let ms x = 1000. *. x

let run o =
  let spec = o.spec in
  let dir =
    Filename.concat o.workdir (Printf.sprintf "%s-%d-%d" spec.Spec.name o.seed (Unix.getpid ()))
  in
  let books = { attempted = 0; failed = 0; notes = [] } in
  (* set-up, several times: all but the last server are discarded *)
  let rec setup k acc =
    let child, client, port, s = start_server o dir in
    if k > 1 then begin
      Client.close client;
      Proc.kill child;
      setup (k - 1) (s :: acc)
    end
    else (child, client, port, Array.of_list (s :: acc))
  in
  let child, client, port, setup_samples = setup (setups o) [] in
  let alive = ref true in
  let stop_server () =
    if !alive then begin
      alive := false;
      Client.close client;
      Proc.kill child
    end
  in
  Fun.protect ~finally:(fun () -> stop_server (); Proc.rm_rf dir) @@ fun () ->
  let market = Spec.read_manifest (Filename.concat dir "manifest") in
  let prices = Spec.initial_prices spec ~seed:o.seed in
  let n_events = Spec.events spec ~seconds:o.seconds in
  let batches = Array.of_list (Spec.stream spec market ~seed:o.seed ~events:n_events) in
  let nb = Array.length batches in
  let queries = Array.of_list (Spec.queries spec ~seed:o.seed ~n:nb) in
  (* the first tenth of the stream warms the server up, untimed *)
  let warm = max 1 (nb / 10) in
  (* notifications: arrival time per instance key, recorded by the
     client's receiver thread *)
  let mu = Mutex.create () in
  let arrivals = ref [] and notify_frames = ref 0 in
  let classes, expr = Spec.subscription spec market in
  ignore
    (Client.subscribe client ~name:"perfbench" ~classes expr (fun insts ->
         let t = now () in
         let keys = List.map instance_key insts in
         Mutex.lock mu;
         incr notify_frames;
         List.iter (fun k -> arrivals := (k, t) :: !arrivals) keys;
         Mutex.unlock mu));
  let sent = Array.map List.length batches in
  let acked = Array.make nb 0 in
  let flush_at = Array.make nb 0. in
  let ack_lat = Stat.buf () and query_lat = Stat.buf () in
  let answers = Array.make nb ([], []) in
  let query q =
    let pred = Oodb.Query_parser.to_syntax (Spec.query_pred q) in
    let t0 = now () in
    let rows = Client.query client ~cls:Market.stock_class ~pred in
    let dt = now () -. t0 in
    (List.sort compare (List.map (fun (oid, _, attrs) -> (oid, row_price attrs)) rows), dt)
  in
  let cpu0 = ref 0. and steal0 = ref (0, 0) and t_start = ref 0. in
  for b = 0 to nb - 1 do
    if b = warm then begin
      cpu0 := Proc.cpu_seconds child.Proc.pid;
      steal0 := Proc.steal_total ();
      t_start := now ()
    end;
    List.iter (Client.send client) batches.(b);
    let t0 = now () in
    flush_at.(b) <- t0;
    (acked.(b) <-
       (try Client.flush client with Client.Server_error _ -> 0));
    if b >= warm then Stat.push ack_lat (now () -. t0);
    let p, pt = query (fst queries.(b)) in
    let r, rt = query (snd queries.(b)) in
    answers.(b) <- (p, r);
    if b >= warm then begin
      Stat.push query_lat pt;
      Stat.push query_lat rt
    end
  done;
  let wall = now () -. !t_start in
  let cpu = Proc.cpu_seconds child.Proc.pid -. !cpu0 in
  let steal = Proc.steal_share !steal0 (Proc.steal_total ()) in
  if o.fault = Some "drop-ack" then acked.(nb / 2) <- 0;
  let timed_events = Array.fold_left ( + ) 0 (Array.sub acked warm (nb - warm)) in
  (* --- outside the timed phase: checks ------------------------------------ *)
  let fired_rows =
    Client.query client ~cls:Sentinel.Sentinel_classes.rule_class ~pred:"true"
    |> List.filter_map (fun (_, _, attrs) ->
           match (List.assoc_opt "name" attrs, List.assoc_opt "fired" attrs) with
           | Some n, Some f -> (
             match (Oodb.Persist.decode_value n, Oodb.Persist.decode_value f) with
             | Value.Str n, Value.Int f -> Some (n, f)
             | _ -> None)
           | _ -> None)
  in
  let ingested =
    let text = Client.server_stats client in
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "events_ingested"; n ] -> int_of_string_opt n
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:(-1)
  in
  check_acks books ~sent ~acked ~ingested;
  let rss = Proc.rss_peak_mb child.Proc.pid in
  let rows_frame =
    if o.trace then
      rows_per_frame ~port
        (List.concat_map (fun (p, r) -> [ p; r ]) (Array.to_list (Array.sub queries 0 (min nb 200))))
    else nan
  in
  (* expected notifications and firing counts *)
  let event_batch = Hashtbl.create 4096 in
  Array.iteri
    (fun b evs ->
      List.iter
        (fun (oid, meth, params) ->
          Hashtbl.replace event_batch (occ_key (Oid.to_int oid) meth params) b)
        evs)
    batches;
  let expected_fired, expected_keys =
    if spec.Spec.purchase_pairs > 0 || spec.Spec.watch_rules > 0 then oracle spec ~seed:o.seed batches
    else begin
      let set_prices = ref 0 and keys = ref [] in
      Array.iter
        (List.iter (fun (oid, meth, params) ->
             if meth = "set_price" then begin
               incr set_prices;
               match params with
               | [ Value.Float p ] when p >= Spec.notify_floor ->
                 keys := occ_key (Oid.to_int oid) meth params :: !keys
               | _ -> ()
             end))
        batches;
      ([ (Spec.price_watch_name, !set_prices) ], !keys)
    end
  in
  let got_fired name =
    List.fold_left (fun a (n, f) -> if n = name then a + f else a) 0 fired_rows
  in
  check books ~what:"rule firings" ~attempted:(List.length expected_fired)
    ~failed:(List.length (List.filter (fun (n, f) -> got_fired n <> f) expected_fired));
  (* wait for the outlet to deliver: until the expected count arrived, or
     two seconds pass without a new arrival *)
  let n_expected = List.length expected_keys in
  let rec settle last_n last_t =
    let n = Mutex.protect mu (fun () -> List.length !arrivals) in
    if n >= n_expected then ()
    else if n > last_n then (Thread.delay 0.01; settle n (now ()))
    else if now () -. last_t > 2. then ()
    else (Thread.delay 0.01; settle last_n last_t)
  in
  settle (-1) (now ());
  let arrived, frames = Mutex.protect mu (fun () -> (!arrivals, !notify_frames)) in
  check_notifies books ~expected:expected_keys ~received:(List.map fst arrived);
  let notify_lat = Stat.buf () in
  List.iter
    (fun (key, t) ->
      let b =
        List.fold_left
          (fun b k -> max b (Option.value (Hashtbl.find_opt event_batch k) ~default:(-1)))
          (-1) (String.split_on_char ';' key)
      in
      if b >= warm then Stat.push notify_lat (t -. flush_at.(b)))
    arrived;
  (* queries against the model, batch by batch *)
  let md = model market prices in
  let bad_queries = ref 0 in
  Array.iteri
    (fun b evs ->
      if acked.(b) = sent.(b) then List.iter (apply md) evs;
      let p, r = answers.(b) in
      let qp, qr = queries.(b) in
      if p <> expected_rows md market qp then incr bad_queries;
      if r <> expected_rows md market qr then incr bad_queries)
    batches;
  check books ~what:"queries" ~attempted:(2 * nb) ~failed:!bad_queries;
  (* crash: SIGKILL after the last Ack, then recover into fresh dbs *)
  stop_server ();
  let wal_bytes =
    List.fold_left
      (fun a i -> a + (Unix.stat (Spec.wal_path dir i)).Unix.st_size)
      0
      (List.init spec.shards Fun.id)
  in
  let t0 = now () in
  let dbs = Spec.recover spec ~dir in
  let recover_s = now () -. t0 in
  let db_of oid = dbs.(Spec.owner spec oid) in
  let lost = ref 0 and written = ref 0 in
  Array.iteri
    (fun k w ->
      if w then begin
        incr written;
        let oid = market.stocks.(k) in
        match Db.get (db_of oid) oid "price" with
        | Value.Float p when p = md.prices.(k) -> ()
        | _ | (exception _) -> incr lost
      end)
    md.stock_written;
  Array.iteri
    (fun j w ->
      if w then begin
        incr written;
        let oid = market.indexes.(j) in
        match md.index_vals.(j) with
        | [ v; c ] -> (
          match (Db.get (db_of oid) oid "value", Db.get (db_of oid) oid "change") with
          | v', c' when Value.equal v v' && Value.equal c c' -> ()
          | _ | (exception _) -> incr lost)
        | _ -> incr lost
      end)
    md.index_written;
  check books ~what:"durable writes" ~attempted:!written ~failed:!lost;
  let te = float_of_int (max 1 timed_events) in
  let acks = Stat.contents ack_lat and nots = Stat.contents notify_lat in
  let qs = Stat.contents query_lat in
  (* End to end: what a user sees that repeats on this kind of machine.
     The timings vary with the host's load far beyond any useful bound
     (see README.md), so they are reported with the per-layer set. *)
  let metrics =
    [
      ("setup_s", Stat.median setup_samples, "s");
      ("server_rss_peak_mb", rss, "MiB");
      ( "wal_bytes_per_event",
        float_of_int wal_bytes /. float_of_int (max 1 (Array.fold_left ( + ) 0 acked)),
        "B" );
    ]
  in
  let wire =
    [
      ("events_per_s", te /. wall, "1/s");
      ("ack_p50_ms", ms (Stat.percentile acks 50.), "ms");
      ("ack_p90_ms", ms (Stat.percentile acks 90.), "ms");
      ("notify_p50_ms", ms (Stat.percentile nots 50.), "ms");
      ("notify_p90_ms", ms (Stat.percentile nots 90.), "ms");
      ("query_p50_ms", ms (Stat.percentile qs 50.), "ms");
      ("query_p90_ms", ms (Stat.percentile qs 90.), "ms");
      ("server_cpu_us_per_event", 1e6 *. cpu /. te, "us");
      ("recover_s", recover_s, "s");
      ("client.ack_p99_ms", ms (Stat.percentile acks 99.), "ms");
      ("client.notify_p99_ms", ms (Stat.percentile nots 99.), "ms");
      ("client.query_p99_ms", ms (Stat.percentile qs 99.), "ms");
      ( "net.instances_per_notify_frame",
        float_of_int (List.length arrived) /. float_of_int (max 1 frames),
        "count" );
      ("net.rows_per_frame", rows_frame, "count");
    ]
  in
  { events = n_events; timed_events; steal; metrics; wire; books; batches }
