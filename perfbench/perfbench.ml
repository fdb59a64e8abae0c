(* perfbench: the wire-level benchmark of the Sentinel server.

     perfbench run --workload W --seed N --seconds S --trace 0|1
     perfbench serve --workload W --seed N --dir D      (spawned by run)

   [run] prints one line per metric and, last, one JSON object with the
   keys correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer ones with --trace 1.  See README.md. *)

let usage () =
  prerr_endline
    "usage: perfbench run --workload NAME --seed N --seconds S --trace 0|1 \
     [--tiny] [--workdir DIR] [--fault drop-ack]\n\
    \       perfbench serve --workload NAME --seed N --dir DIR [--tiny]";
  exit 2

let parse args =
  let rec go acc = function
    | [] -> acc
    | "--tiny" :: rest -> go (("tiny", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result (r : Drive.result) ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.books.attempted r.books.failed body

let run kv =
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let tiny = List.mem_assoc "tiny" kv in
  let spec =
    match Spec.find (get "workload") with
    | Some s -> if tiny then Spec.tiny s else s
    | None -> usage ()
  in
  let o =
    {
      Drive.spec;
      seed = int "seed";
      seconds = max 1 (int "seconds");
      trace = int "trace" = 1;
      tiny;
      workdir = Option.value (List.assoc_opt "workdir" kv) ~default:"perfbench/_work";
      fault =
        (match List.assoc_opt "fault" kv with
        | (None | Some "drop-ack") as f -> f
        | Some _ -> usage ());
    }
  in
  let r = Drive.run o in
  let layers = if o.trace then Traced.run o r else [] in
  Printf.printf "# perfbench %s: seed %d, %d events (%d timed), shards %d, cores %d, steal %.3f, OCaml %s\n"
    spec.name o.seed r.events r.timed_events spec.shards
    (Domain.recommended_domain_count ()) r.steal Sys.ocaml_version;
  let metrics = if o.trace then r.wire @ layers else r.metrics in
  let line (n, v, u) = Printf.printf "%-36s %14.4f %s\n" n v u in
  List.iter line metrics;
  (* the timings are shown, not gated, in an untraced run *)
  if not o.trace then List.iter line (List.filter (fun (_, v, _) -> Float.is_finite v) r.wire);
  Printf.printf "%-36s %14.6f (%d of %d operations)\n" "failed_frac"
    (float_of_int r.books.failed /. float_of_int (max 1 r.books.attempted))
    r.books.failed r.books.attempted;
  List.iter (fun n -> Printf.printf "# failed: %s\n" n) (List.rev r.books.notes);
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  print_result r ~correct:(r.books.failed = 0 && finite) metrics

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run (parse args)
  | _ :: "serve" :: args ->
    let kv = parse args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let spec =
      match Spec.find (get "workload") with
      | Some s -> if List.mem_assoc "tiny" kv then Spec.tiny s else s
      | None -> usage ()
    in
    Serve.main spec ~seed:(int_of_string (get "seed")) ~dir:(get "dir")
  | _ -> usage ()
