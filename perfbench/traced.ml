(* The traced run: the wire run's inputs replayed in one process through the
   public calls the server makes for each flush — Frame.decode, then
   Codec.decode_event, then System.ingest on each owning shard via
   Shard_pool.run_on, then System.sync_wal — with the benchmark's own span
   around each call.  Spans stay in memory and are written when the run
   ends.

   Traced and untraced flushes alternate within one replay, so the tracing
   overhead compares flushes made moments apart rather than two replays
   made at different load on the host.  A second replay without the
   workload's rules gives the rule-free ingest cost.

   The replay submits to the shards one after another (run_on waits), so at
   two shards it attributes work rather than reproducing the server's
   overlap; the journal is the group-commit one sealed by an explicit
   System.sync_wal, which is where a one-shard commit's fsync sits too. *)

module System = Sentinel.System
module Shard_pool = Sentinel.Shard_pool
module Frame = Net.Frame
module Codec = Events.Codec

let now_us = Obs.Clock.now_us

type span = {
  id : int;
  parent : int;  (* -1 for a flush, the root *)
  name : string;
  flush : int;
  t0 : float;
  t1 : float;
}

(* What one replay measured. *)
type pass = {
  flushes : int;  (* timed flushes *)
  events : int;  (* events of the timed flushes *)
  traced_events : int;  (* of those, events of the traced flushes *)
  traced_wall : float;  (* flush time, traced flushes (us) *)
  plain_events : int;
  plain_wall : float;
  spans : span list;
  queue_wait : float array;
  query_point : float array;
  query_range : float array;
  query_rows : int;
  query_probes : int;
  actions : float array;
  bytes_in : int;
  route : System.sys_stats;  (* deltas over the timed flushes *)
  fed : int;
  signalled : int;
  wal_bytes : int;
  wal_seals : int;
  commits : int;
  pushes : int;
  processed : int array;
  replay_us : float;
  send_us : float;  (* Db.send per event, journal detached *)
  all_events : int;
}

let ok = function Ok v -> v | Error e -> raise e

(* Engine counters summed over the shards, copied out of the live records. *)
let sum_stats pool shards =
  let get i = System.stats (Shard_pool.system pool i) in
  let acc = { (get 0) with System.dispatched = (get 0).System.dispatched } in
  for i = 1 to shards - 1 do
    let s = get i in
    acc.candidates_probed <- acc.candidates_probed + s.candidates_probed;
    acc.leaves_offered <- acc.leaves_offered + s.leaves_offered;
    acc.batch_events <- acc.batch_events + s.batch_events;
    acc.coalesced_probes <- acc.coalesced_probes + s.coalesced_probes;
    acc.conditions_checked <- acc.conditions_checked + s.conditions_checked;
    acc.actions_executed <- acc.actions_executed + s.actions_executed;
    acc.wal_fsyncs <- acc.wal_fsyncs + s.wal_fsyncs
  done;
  acc

let delta (a : System.sys_stats) (b : System.sys_stats) =
  {
    b with
    System.candidates_probed = b.candidates_probed - a.candidates_probed;
    leaves_offered = b.leaves_offered - a.leaves_offered;
    batch_events = b.batch_events - a.batch_events;
    coalesced_probes = b.coalesced_probes - a.coalesced_probes;
    conditions_checked = b.conditions_checked - a.conditions_checked;
    actions_executed = b.actions_executed - a.actions_executed;
    wal_fsyncs = b.wal_fsyncs - a.wal_fsyncs;
  }

let detector_counts pool shards =
  let fed = ref 0 and signalled = ref 0 in
  for i = 0 to shards - 1 do
    let sys = Shard_pool.system pool i in
    List.iter
      (fun oid ->
        let d = (System.rule_info sys oid).Sentinel.Rule.detector in
        fed := !fed + Events.Detector.fed d;
        signalled := !signalled + Events.Detector.signalled d)
      (System.rules sys)
  done;
  (!fed, !signalled)

let seals pool shards =
  List.fold_left
    (fun n i ->
      match System.wal (Shard_pool.system pool i) with
      | Some w -> n + Oodb.Wal.batches_written w
      | None -> n)
    0 (List.init shards Fun.id)

(* One in-process replay of the workload's stream.  From the end of the
   warm-up, every [trace_every]-th flush is traced. *)
let pass (o : Drive.opts) ~rules ~trace_every ~dir =
  let spec = o.spec in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let pool, market =
    Spec.create_pool ~rules ~explicit_sync:true spec ~seed:o.seed ~dir
  in
  let n_events = Spec.events spec ~seconds:o.seconds in
  let batches = Array.of_list (Spec.stream spec market ~seed:o.seed ~events:n_events) in
  let nb = Array.length batches in
  let queries = Array.of_list (Spec.queries spec ~seed:o.seed ~n:nb) in
  let warm = max 1 (nb / 10) in
  let spans = ref [] and next_id = ref 0 in
  let traced = ref false in
  let span ~flush ~parent name t0 t1 =
    incr next_id;
    if !traced then spans := { id = !next_id; parent; name; flush; t0; t1 } :: !spans;
    !next_id
  in
  let queue_wait = Stat.buf () and qpoint = Stat.buf () and qrange = Stat.buf () in
  let actions = Stat.buf () in
  let rows = ref 0 and probes = ref 0 and bytes_in = ref 0 and commits = ref 0 in
  let events = ref 0 and traced_events = ref 0 and plain_events = ref 0 in
  let traced_wall = ref 0. and plain_wall = ref 0. in
  let before = ref (sum_stats pool spec.shards) and seals0 = ref 0 and fed0 = ref (0, 0) in
  let run_query b q store =
    let pred = Spec.query_pred q in
    let per_shard =
      ok
        (Shard_pool.each pool (fun _ sys ->
             let p0 = Oodb.Query.probes () in
             let t0 = now_us () in
             let r = Oodb.Query.select (System.db sys) Workloads.Stock_market.stock_class pred in
             (now_us () -. t0, List.length r, Oodb.Query.probes () - p0)))
    in
    if b >= warm then begin
      Stat.push store (List.fold_left (fun a (t, _, _) -> a +. t) 0. per_shard);
      List.iter
        (fun (_, n, p) ->
          rows := !rows + n;
          probes := !probes + p)
        per_shard
    end
  in
  for b = 0 to nb - 1 do
    if b = warm then begin
      before := sum_stats pool spec.shards;
      seals0 := seals pool spec.shards;
      fed0 := detector_counts pool spec.shards
    end;
    traced := b >= warm && (b - warm) mod trace_every = 0;
    Spec.action_timer := if !traced then Some (Stat.push actions) else None;
    incr next_id;
    let flush_id = !next_id in
    let f0 = now_us () in
    (* client side: the Send_many frame *)
    let frame =
      Frame.encode
        (Send_many { trace = 0; events = List.map Codec.encode_event batches.(b) })
    in
    let f1 = now_us () in
    ignore (span ~flush:b ~parent:flush_id "net.encode" f0 f1);
    (* server side *)
    let events_in =
      match Frame.decode frame with
      | Send_many { events; _ } -> events
      | _ -> failwith "traced replay: not a Send_many"
    in
    let f2 = now_us () in
    ignore (span ~flush:b ~parent:flush_id "net.decode" f1 f2);
    let evs = List.map Codec.decode_event events_in in
    let f3 = now_us () in
    ignore (span ~flush:b ~parent:flush_id "codec.decode" f2 f3);
    let parts = Array.make spec.shards [] in
    List.iter
      (fun ((oid, _, _) as e) ->
        let i = Shard_pool.shard_of pool oid in
        parts.(i) <- e :: parts.(i))
      (List.rev evs);
    Array.iteri
      (fun i part ->
        if part <> [] then begin
          let posted = now_us () in
          let started, ingested, synced =
            ok
              (Shard_pool.run_on pool i (fun sys ->
                   let s0 = now_us () in
                   ignore (ok (System.ingest sys part));
                   let s1 = now_us () in
                   System.sync_wal sys;
                   (s0, s1, now_us ())))
          in
          let pool_id = span ~flush:b ~parent:flush_id "shard_pool" posted (now_us ()) in
          ignore (span ~flush:b ~parent:pool_id "system.ingest" started ingested);
          ignore (span ~flush:b ~parent:pool_id "wal.sync" ingested synced);
          if b >= warm then begin
            Stat.push queue_wait (started -. posted);
            incr commits
          end
        end)
      parts;
    let f4 = now_us () in
    if !traced then
      spans := { id = flush_id; parent = -1; name = "flush"; flush = b; t0 = f0; t1 = f4 } :: !spans;
    if b >= warm then begin
      let n = List.length batches.(b) in
      events := !events + n;
      if !traced then begin
        traced_events := !traced_events + n;
        traced_wall := !traced_wall +. (f4 -. f0);
        bytes_in := !bytes_in + String.length frame
      end
      else begin
        plain_events := !plain_events + n;
        plain_wall := !plain_wall +. (f4 -. f0)
      end
    end;
    run_query b (fst queries.(b)) qpoint;
    run_query b (snd queries.(b)) qrange
  done;
  Spec.action_timer := None;
  let after = sum_stats pool spec.shards in
  let fed1, sig1 = detector_counts pool spec.shards in
  let wal_seals = seals pool spec.shards - !seals0 in
  let st = Shard_pool.stats pool in
  (* Db.send per event with the journal detached, on the first events *)
  let sample = List.concat (Array.to_list (Array.sub batches 0 (min nb 200))) in
  let send_total = ref 0. and send_n = ref 0 in
  for i = 0 to spec.shards - 1 do
    let mine = List.filter (fun (oid, _, _) -> Shard_pool.shard_of pool oid = i) sample in
    send_total :=
      !send_total
      +. ok
           (Shard_pool.run_on pool i (fun sys ->
                System.detach_wal sys;
                let db = System.db sys in
                let t0 = now_us () in
                List.iter (fun (oid, m, args) -> ignore (Oodb.Db.send db oid m args)) mine;
                now_us () -. t0));
    send_n := !send_n + List.length mine
  done;
  Shard_pool.stop pool;
  (* WAL replay: the snapshot loads untimed, then the log is timed *)
  let replay_us = ref 0. and wal_bytes = ref 0 in
  for i = 0 to spec.shards - 1 do
    let db, _ = Spec.fresh_db () in
    Oodb.Persist.load db (Spec.snap_path dir i);
    let t0 = now_us () in
    ignore (Oodb.Wal.replay db (Spec.wal_path dir i));
    replay_us := !replay_us +. (now_us () -. t0);
    wal_bytes := !wal_bytes + (Unix.stat (Spec.wal_path dir i)).Unix.st_size
  done;
  Proc.rm_rf dir;
  {
    flushes = nb - warm;
    events = !events;
    traced_events = !traced_events;
    traced_wall = !traced_wall;
    plain_events = !plain_events;
    plain_wall = !plain_wall;
    spans = !spans;
    queue_wait = Stat.contents queue_wait;
    query_point = Stat.contents qpoint;
    query_range = Stat.contents qrange;
    query_rows = !rows;
    query_probes = !probes;
    actions = Stat.contents actions;
    bytes_in = !bytes_in;
    route = delta !before after;
    fed = fed1 - fst !fed0;
    signalled = sig1 - snd !fed0;
    wal_bytes = !wal_bytes;
    wal_seals;
    commits = !commits;
    pushes = st.Shard_pool.mpsc_pushes;
    processed = st.Shard_pool.shard_processed;
    replay_us = !replay_us;
    send_us = !send_total /. float_of_int (max 1 !send_n);
    all_events = n_events;
  }

(* --- self time and the layer table ----------------------------------------- *)

(* (layer, flush, self time): a span minus the time its children cover.
   Children of one span never overlap: the replay is sequential.  A flush's
   own self time is the unattributed rest. *)
let self_times spans =
  let children = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (Option.value (Hashtbl.find_opt children s.parent) ~default:0. +. (s.t1 -. s.t0)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      ((if s.name = "flush" then "unattributed" else s.name), s.flush, s.t1 -. s.t0 -. kids))
    spans

let layers =
  [ "net.encode"; "net.decode"; "codec.decode"; "shard_pool"; "system.ingest"; "wal.sync"; "unattributed" ]

let print_table name spans =
  let selfs = self_times spans in
  let total =
    List.fold_left (fun a s -> if s.name = "flush" then a +. (s.t1 -. s.t0) else a) 0. spans
  in
  Printf.printf "# layer table, %s (self time per flush, us)\n" name;
  Printf.printf "# %-16s %10s %10s %8s\n" "layer" "p50" "p99" "share";
  List.iter
    (fun l ->
      (* a layer hit on two shards in one flush counts once, summed *)
      let per_flush = Hashtbl.create 1024 in
      List.iter
        (fun (l', f, t) ->
          if l' = l then
            Hashtbl.replace per_flush f (Option.value (Hashtbl.find_opt per_flush f) ~default:0. +. t))
        selfs;
      let xs = Array.of_seq (Hashtbl.to_seq_values per_flush) in
      Printf.printf "# %-16s %10.2f %10.2f %8.4f\n" l (Stat.percentile xs 50.)
        (Stat.percentile xs 99.) (Stat.sum xs /. total))
    layers

let write_spans path spans =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"flush\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.flush s.t0 s.t1)
    (List.rev spans);
  output_string oc "]\n";
  close_out oc

(* --- detector microbenchmark ----------------------------------------------- *)

(* Detector.feed on the workload's event shapes, fed the stream's first
   occurrences. *)
let detector_feed_us (o : Drive.opts) (r : Drive.result) =
  let exprs =
    Events.Expr.eom ~cls:Workloads.Stock_market.stock_class "set_price"
    ::
    (if o.spec.purchase_pairs > 0 then
       [ Spec.purchase_expr ]
     else [ Spec.price_mask ])
  in
  let dets = List.map (Events.Detector.create ~on_signal:ignore) exprs in
  let occs =
    Array.to_list r.Drive.batches
    |> List.concat
    |> List.filteri (fun i _ -> i < 20_000)
    |> List.mapi (fun i (oid, meth, params) ->
           let cls =
             if meth = "set_price" then Workloads.Stock_market.stock_class
             else Workloads.Stock_market.financial_info_class
           in
           Oodb.Occurrence.make ~source:oid ~source_class:cls ~meth
             ~modifier:Oodb.Types.After ~params ~at:(i + 1))
  in
  let t0 = now_us () in
  List.iter (fun occ -> List.iter (fun d -> Events.Detector.feed d occ) dets) occs;
  (now_us () -. t0) /. float_of_int (max 1 (List.length occs * List.length dets))

(* --- the traced run -------------------------------------------------------- *)

let run (o : Drive.opts) (r : Drive.result) =
  let dir =
    Filename.concat o.workdir
      (Printf.sprintf "traced-%s-%d-%d" o.spec.name o.seed (Unix.getpid ()))
  in
  let traced = pass o ~rules:true ~trace_every:2 ~dir in
  let bare = pass o ~rules:false ~trace_every:1 ~dir in
  print_table o.spec.name traced.spans;
  write_spans
    (Filename.concat o.workdir (Printf.sprintf "spans-%s.json" o.spec.name))
    traced.spans;
  let span_sum p name =
    List.fold_left (fun a s -> if s.name = name then a +. (s.t1 -. s.t0) else a) 0. p.spans
  in
  let per_traced_event p x = x /. float_of_int (max 1 p.traced_events) in
  let self_sum name =
    List.fold_left (fun a (l, _, t) -> if l = name then a +. t else a) 0. (self_times traced.spans)
  in
  let traced_flushes =
    float_of_int (List.length (List.filter (fun s -> s.name = "flush") traced.spans))
  in
  let syncs =
    Array.of_list
      (List.filter_map
         (fun s -> if s.name = "wal.sync" then Some (s.t1 -. s.t0) else None)
         traced.spans)
  in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let st = traced.route in
  let processed = Array.map float_of_int traced.processed in
  let eps events wall = float_of_int events /. wall in
  [
    ("net.encode_us_per_event", per_traced_event traced (span_sum traced "net.encode"), "us");
    ( "net.decode_us_per_event",
      per_traced_event traced (span_sum traced "net.decode" +. span_sum traced "codec.decode"),
      "us" );
    ("net.bytes_in_per_event", per_traced_event traced (float_of_int traced.bytes_in), "B");
    ("shard_pool.submit_us_per_batch", self_sum "shard_pool" /. traced_flushes, "us");
    ("shard_pool.queue_wait_us_p50", Stat.percentile traced.queue_wait 50., "us");
    ("shard_pool.queue_wait_us_p99", Stat.percentile traced.queue_wait 99., "us");
    ("shard_pool.pushes_per_event", ratio traced.pushes traced.all_events, "count");
    ("shard_pool.skew", Array.fold_left max 0. processed /. Stat.mean processed, "ratio");
    ("system.ingest_us_per_event", per_traced_event traced (span_sum traced "system.ingest"), "us");
    ( "system.ingest_us_per_event_no_rules",
      per_traced_event bare (span_sum bare "system.ingest"),
      "us" );
    ("route.probes_per_event", ratio st.candidates_probed traced.events, "count");
    ("route.offered_per_probe", ratio st.leaves_offered st.candidates_probed, "ratio");
    ("route.coalesced_frac", ratio st.coalesced_probes st.batch_events, "ratio");
    ("detector.feed_us", detector_feed_us o r, "us");
    ("detector.signalled_per_fed", ratio traced.signalled traced.fed, "ratio");
    ("scheduler.conditions_per_event", ratio st.conditions_checked traced.events, "count");
    ("scheduler.actions_per_event", ratio st.actions_executed traced.events, "count");
    ("scheduler.action_us_p50", Stat.percentile traced.actions 50., "us");
    ("query.point_us_p50", Stat.percentile traced.query_point 50., "us");
    ("query.range_us_p50", Stat.percentile traced.query_range 50., "us");
    ("query.probes_per_row", ratio traced.query_probes traced.query_rows, "count");
    ("db.send_us_per_event", bare.send_us, "us");
    ("wal.sync_us_p50", Stat.percentile syncs 50., "us");
    ("wal.sync_us_p99", Stat.percentile syncs 99., "us");
    ("wal.bytes_per_event", ratio traced.wal_bytes traced.all_events, "B");
    ("wal.fsyncs_per_flush", ratio st.wal_fsyncs traced.flushes, "count");
    ("wal.commits_per_seal", ratio traced.commits traced.wal_seals, "count");
    ("wal.replay_us_per_event", traced.replay_us /. float_of_int traced.all_events, "us");
    ( "obs.trace_overhead_frac",
      1.
      -. (eps traced.traced_events traced.traced_wall
         /. eps traced.plain_events traced.plain_wall),
      "ratio" );
  ]
