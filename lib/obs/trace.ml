type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_label : string;
  sp_ts : float;
  sp_dur : float;
}

(* A token carries everything needed to close the span and restore the
   tracing context, so enter/exit pairs nest correctly even when the code
   between them opens further spans or raises. *)
type token =
  | No_span
  | Span of {
      tk_trace : int;
      tk_id : int;
      tk_parent : int;
      tk_name : string;
      tk_label : string;
      tk_ts : float;
      tk_saved_trace : int;
      tk_saved_parent : int;
    }

let on = Ctl.trace_on

let enable () =
  on := true;
  Ctl.recompute ()

let disable () =
  on := false;
  Ctl.recompute ()

(* Trace and span ids are process-wide (a cascade hops domains when a rule
   action targets an object owned by another shard), so the allocators are
   atomics.  Everything else is per-domain: each domain owns a span ring and
   its current trace/parent context, reached through one DLS key. *)
let next_trace = Atomic.make 0
let next_span = Atomic.make 0
let recorded = Atomic.make 0
let dropped_carry = Atomic.make 0

let capacity = Atomic.make 4096

(* Bumped by set_capacity/clear: domains lazily swap in a fresh ring when
   their generation is stale, so the global operations never touch another
   domain's live ring. *)
let generation = Atomic.make 0
let rings_lock = Mutex.create ()
let rings : span Ring.t list ref = ref []

type dstate = {
  mutable cur_trace : int;
  mutable cur_parent : int;
  mutable ring : span Ring.t;
  mutable ring_gen : int; (* -1 until the first recorded span *)
}

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { cur_trace = 0; cur_parent = 0; ring = Ring.create 0; ring_gen = -1 })

let my_ring st =
  let g = Atomic.get generation in
  if st.ring_gen <> g then begin
    let r = Ring.create (Atomic.get capacity) in
    Mutex.protect rings_lock (fun () -> rings := r :: !rings);
    st.ring <- r;
    st.ring_gen <- g
  end;
  st.ring

let discard_rings () =
  Mutex.protect rings_lock (fun () ->
      List.iter
        (fun r -> ignore (Atomic.fetch_and_add dropped_carry (Ring.dropped r)))
        !rings;
      rings := [];
      Atomic.incr generation)

let set_capacity n =
  Atomic.set capacity (max 0 n);
  discard_rings ();
  Atomic.set recorded 0;
  Atomic.set dropped_carry 0

let clear () = discard_rings ()

let now_us () = Clock.now_us ()

let enter tk_name tk_label =
  if not !on then No_span
  else begin
    let st = Domain.DLS.get dls in
    let tk_saved_trace = st.cur_trace and tk_saved_parent = st.cur_parent in
    let tk_trace =
      if tk_saved_trace = 0 then 1 + Atomic.fetch_and_add next_trace 1
      else tk_saved_trace
    in
    let tk_parent = if tk_saved_trace = 0 then 0 else tk_saved_parent in
    let tk_id = 1 + Atomic.fetch_and_add next_span 1 in
    st.cur_trace <- tk_trace;
    st.cur_parent <- tk_id;
    Span
      {
        tk_trace;
        tk_id;
        tk_parent;
        tk_name;
        tk_label;
        tk_ts = now_us ();
        tk_saved_trace;
        tk_saved_parent;
      }
  end

(* Span labels are kept by reference, and strings are immutable, so one
   preallocated label per small batch size can be shared by every span. *)
let batch_labels = Array.init 257 (fun n -> "batch:" ^ string_of_int n)

let batch_label n =
  if n >= 0 && n < Array.length batch_labels then batch_labels.(n)
  else "batch:" ^ string_of_int n

let exit = function
  | No_span -> ()
  | Span s ->
    let st = Domain.DLS.get dls in
    st.cur_trace <- s.tk_saved_trace;
    st.cur_parent <- s.tk_saved_parent;
    Atomic.incr recorded;
    Ring.push (my_ring st)
      {
        sp_trace = s.tk_trace;
        sp_id = s.tk_id;
        sp_parent = s.tk_parent;
        sp_name = s.tk_name;
        sp_label = s.tk_label;
        sp_ts = s.tk_ts;
        sp_dur = now_us () -. s.tk_ts;
      }

let instant name label =
  if !on then begin
    let st = Domain.DLS.get dls in
    let sp_id = 1 + Atomic.fetch_and_add next_span 1 in
    Atomic.incr recorded;
    Ring.push (my_ring st)
      {
        sp_trace = st.cur_trace;
        sp_id;
        sp_parent = st.cur_parent;
        sp_name = name;
        sp_label = label;
        sp_ts = now_us ();
        sp_dur = -1.;
      }
  end

let current () = (Domain.DLS.get dls).cur_trace

let fresh_id () = if !on then 1 + Atomic.fetch_and_add next_trace 1 else 0

let with_trace trace f =
  let st = Domain.DLS.get dls in
  let saved_trace = st.cur_trace and saved_parent = st.cur_parent in
  st.cur_trace <- trace;
  st.cur_parent <- 0;
  Fun.protect
    ~finally:(fun () ->
      st.cur_trace <- saved_trace;
      st.cur_parent <- saved_parent)
    f

(* Rings are grouped per domain in registration order; within a ring, spans
   are in exit order exactly as before.  Reading while another domain is
   recording is safe (OCaml arrays never tear) but best-effort — quiesce for
   an exact view. *)
let spans () =
  let rs = Mutex.protect rings_lock (fun () -> List.rev !rings) in
  List.concat_map Ring.to_list rs

let find_trace id = List.filter (fun s -> s.sp_trace = id) (spans ())
let traces_started () = Atomic.get next_trace
let spans_recorded () = Atomic.get recorded

let spans_dropped () =
  let live =
    Mutex.protect rings_lock (fun () ->
        List.fold_left (fun n r -> n + Ring.dropped r) 0 !rings)
  in
  Atomic.get dropped_carry + live

(* --- Chrome trace-event export ------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome_json ?spans:spec () =
  let items = match spec with Some l -> l | None -> spans () in
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.sp_ts) Float.infinity items
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      let common =
        Printf.sprintf
          "\"name\": \"%s\", \"cat\": \"sentinel\", \"pid\": 1, \"tid\": %d, \
           \"ts\": %.3f, \"args\": {\"label\": \"%s\", \"span\": %d, \
           \"parent\": %d}"
          (json_escape s.sp_name) s.sp_trace (s.sp_ts -. t0)
          (json_escape s.sp_label) s.sp_id s.sp_parent
      in
      if s.sp_dur < 0. then
        Buffer.add_string b
          (Printf.sprintf "  {\"ph\": \"i\", \"s\": \"t\", %s}" common)
      else
        Buffer.add_string b
          (Printf.sprintf "  {\"ph\": \"X\", \"dur\": %.3f, %s}" s.sp_dur
             common))
    items;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
