(* The harness every experiment in main.ml runs through: settings read once,
   interleaved trials with their spread, one JSON emitter for the BENCH_*.json
   files, and smoke gates as data. *)

open Bechamel
open Toolkit

(* ---- settings ---- *)

(* BENCH_SMOKE=1 selects the CI-sized runs and arms the gates. *)
let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None
let cores = Domain.recommended_domain_count ()

(* ---- printing ---- *)

let row fmt = Printf.printf fmt

let header title =
  Printf.printf "\n== %s %s\n" title
    (String.make (max 0 (72 - String.length title)) '=')

let fmt_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1_000. then Printf.sprintf "%.0f ns" ns
  else if ns < 1_000_000. then Printf.sprintf "%.2f us" (ns /. 1_000.)
  else Printf.sprintf "%.2f ms" (ns /. 1_000_000.)

let fmt_ms ms =
  if ms < 1. then Printf.sprintf "%.3f ms" ms else Printf.sprintf "%.1f ms" ms

(* ---- measurement ---- *)

(* Nanoseconds per run of [f], estimated by Bechamel's OLS fit. *)
let ns_per_run name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~kde:None () in
  let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let tbl = Analyze.all ols Instance.monotonic_clock results in
  match Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] with
  | [ est ] -> (
    match Analyze.OLS.estimates est with
    | Some (ns :: _) -> ns
    | Some [] | None -> Float.nan)
  | _ -> Float.nan

(* Milliseconds for one execution of [f] on the monotonic clock; the result
   of [f] is returned alongside. *)
let time_ms f =
  let t0 = Obs.Clock.now_ns () in
  let result = f () in
  (result, (Obs.Clock.now_ns () -. t0) /. 1e6)

(* [n] operations per second of wall time, [f] performing all [n]. *)
let rate n f =
  let (), ms = time_ms f in
  float_of_int n /. ms *. 1000.

(* ---- trials ---- *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it.  [nan] on no samples.  The same definition as
   perfbench/stat.ml, so a bench median and a perfbench median agree. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)
  end

let median samples = percentile samples 50.

type stat = { samples : float array; median : float; q1 : float; q3 : float }

let stat samples =
  {
    samples;
    median = median samples;
    q1 = percentile samples 25.;
    q3 = percentile samples 75.;
  }

(* Trial-by-trial combinations: trial i of one arm ran next to trial i of
   the other, so a ratio of the pair cancels drift that hit both. *)
let map f s = stat (Array.map f s.samples)
let paired f a b = stat (Array.map2 f a.samples b.samples)

let n_trials = 5

(* Run every arm [n_trials] times, round-robin, so drift on the machine
   hits all arms alike.  An arm returns its timed metric and whatever exact
   side results it has; each arm's result is its metric's stat and its
   side results, one per trial. *)
let trials arms =
  let rounds =
    List.init n_trials (fun _ -> List.map (fun (_, arm) -> arm ()) arms)
  in
  List.mapi
    (fun k (name, _) ->
      let runs =
        Array.of_list (List.map (fun round -> List.nth round k) rounds)
      in
      (name, (stat (Array.map fst runs), Array.map snd runs)))
    arms

(* ---- JSON ---- *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

(* A timed metric: its median under [k], its quartiles beside it. *)
let timed k s =
  [ (k, Num s.median); (k ^ "_q1", Num s.q1); (k ^ "_q3", Num s.q3) ]

let num x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x || Float.abs x >= 1e5 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

(* Keys and strings are printable ASCII, where OCaml's string escapes are
   JSON's. *)
let quote s = Printf.sprintf "%S" s

(* The top-level object and the lists directly under it take one line per
   element; everything deeper stays on its element's line. *)
let rec to_string depth v =
  let seq op cl items =
    if (match v with Obj _ -> depth = 0 | _ -> depth <= 1) then
      let pad = "\n" ^ String.make (2 * (depth + 1)) ' ' in
      op ^ pad ^ String.concat ("," ^ pad) items ^ "\n"
      ^ String.make (2 * depth) ' ' ^ cl
    else op ^ String.concat ", " items ^ cl
  in
  match v with
  | Int i -> string_of_int i
  | Num x -> num x
  | Str s -> quote s
  | Bool b -> string_of_bool b
  | List [] -> "[]"
  | List l -> seq "[" "]" (List.map (to_string (depth + 1)) l)
  | Obj fields ->
    seq "{" "}"
      (List.map (fun (k, x) -> quote k ^ ": " ^ to_string (depth + 1) x) fields)

(* Write [file] with the run's settings ahead of the experiment's fields. *)
let write_bench ~experiment file fields =
  let meta =
    [
      ("experiment", Str experiment); ("cores", Int cores);
      ("trials", Int n_trials); ("ocaml", Str Sys.ocaml_version);
      ("smoke", Bool smoke);
    ]
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_string 0 (Obj (meta @ fields)));
      output_char oc '\n');
  row "  wrote %s\n" file

(* ---- gates ---- *)

type cmp = At_most | At_least | Below | Exactly

type gate = {
  name : string;
  value : float;
  cmp : cmp;
  bound : float;
  detail : string;  (** what [value] was computed from *)
}

(* A gate on the median of trial-by-trial ratios [a / b]. *)
let ratio_gate name a b bound =
  {
    name;
    value = (paired ( /. ) a b).median;
    cmp = At_least;
    bound;
    detail = "median of paired ratios";
  }

let relation = function
  | At_most -> ("<=", ( <= ))
  | At_least -> (">=", ( >= ))
  | Below -> ("<", ( < ))
  | Exactly -> ("=", ( = ))

let gate_failed = ref false

(* Smoke runs check and print every gate; {!finish} then exits 1 if any
   failed. *)
let check gates =
  if smoke then
    List.iter
      (fun g ->
        let op, holds = relation g.cmp in
        if holds g.value g.bound then
          row "  bench-smoke gate: %s: %g %s %g (%s) (ok)\n" g.name g.value op
            g.bound g.detail
        else begin
          gate_failed := true;
          row "  FAIL: %s: %g not %s %g (%s)\n" g.name g.value op g.bound
            g.detail
        end)
      gates

(* Gates on parallel speed-up mean nothing on one core. *)
let on_multicore gates =
  if cores >= 2 then gates
  else begin
    if smoke then
      List.iter
        (fun g ->
          row "  bench-smoke gate: %s not gated on %d core\n" g.name cores)
        gates;
    []
  end

let finish () = if !gate_failed then exit 1
