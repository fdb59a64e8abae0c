(** Cascade tracing.

    A {e trace} follows one cascade through the system: the triggering send,
    the routing of the occurrences it generates, composite detection,
    scheduling of deferred firings, the firings themselves, and any sends
    those actions cascade into.  The trace id is assigned at the outermost
    {!enter} (the triggering send) and propagated implicitly: spans opened
    while another span is live inherit its trace, and the rule layer carries
    the id across the deferred/detached gap with {!with_trace}.

    Spans land in a bounded {!Ring} at {!exit} time and export as
    Chrome-trace-format JSON (load in [chrome://tracing] or Perfetto; each
    trace renders as its own track via the [tid] field).

    Domain-safety: trace and span ids are process-wide atomics — a cascade
    keeps its id when it hops domains (capture with {!current}, replay with
    {!with_trace} on the other side).  The current-trace context and the
    span ring are per-domain; {!spans} merges every domain's ring, grouped
    per domain, exact once recording domains quiesce.

    When [!on] is false, {!enter} returns a constant token and {!exit} is a
    no-op: one ref load and one branch per call site. *)

type span = {
  sp_trace : int;  (** cascade id; 0 for instants outside any cascade *)
  sp_id : int;  (** unique per span *)
  sp_parent : int;  (** enclosing span id, 0 at the cascade root *)
  sp_name : string;  (** stage: "send", "route", "detect", "schedule", "fire" *)
  sp_label : string;  (** method or rule name; "" when not applicable *)
  sp_ts : float;  (** start, µs on the monotonic process clock *)
  sp_dur : float;  (** µs; [-1.] marks an instant event *)
}

type token

val on : bool ref
(** The tracing switch; flip via {!enable}/{!disable}. *)

val enable : unit -> unit
val disable : unit -> unit

val set_capacity : int -> unit
(** Replace the span buffers with empty ones of the given per-domain
    capacity (default 4096) and zero {!spans_recorded}/{!spans_dropped}. *)

val enter : string -> string -> token
(** [enter name label] opens a span.  Starts a fresh trace when no span is
    live; nests into the current trace otherwise.  [label] is positional —
    pass [""] — so the disabled path allocates nothing. *)

val exit : token -> unit
(** Close the span and record it.  Call sites are responsible for calling
    this on exception paths too (re-raise after). *)

val batch_label : int -> string
(** [batch_label n] is ["batch:<n>"], the label of a span that covers a
    batch of [n] items.  For [0 <= n <= 256] it is a preallocated string
    (two calls return the physically equal string), so a batch span
    formats nothing. *)

val instant : string -> string -> unit
(** Record a zero-duration marker in the current trace (e.g. a contained
    failure, a deferred enqueue). *)

val current : unit -> int
(** The live trace id, 0 when none.  Capture at enqueue time and replay via
    {!with_trace} to carry a cascade across a deferred or detached gap. *)

val fresh_id : unit -> int
(** Mint a cascade id without opening a span — for carrying a trace across a
    process boundary (e.g. a wire protocol frame): the sender stamps the
    message with a fresh id, the receiver replays it with {!with_trace} so
    the remote cascade joins the same trace.  Counts toward
    {!traces_started}.  Returns [0] (the no-trace id) while tracing is
    disabled, so a disabled sender costs one load and one branch. *)

val with_trace : int -> (unit -> 'a) -> 'a
(** Run the thunk with the given trace id current (0 = no trace: spans
    opened inside start fresh traces).  Restores the previous trace state on
    return or exception. *)

(** {1 Reading} *)

val spans : unit -> span list
(** Retained spans, oldest first within each domain's ring (rings are
    concatenated in the order domains first recorded). *)

val find_trace : int -> span list
(** The retained spans of one trace, oldest first. *)

val traces_started : unit -> int
(** Trace ids handed out so far (monotone). *)

val spans_recorded : unit -> int
(** Spans ever recorded, including ones the ring has evicted. *)

val spans_dropped : unit -> int
(** Spans evicted by ring capacity (see {!Ring.dropped}): the honest drop
    count for status output — [spans_recorded - length-of-spans] would
    over-report after a {!clear}. *)

val clear : unit -> unit
(** Drop retained spans; counters keep their totals. *)

val to_chrome_json : ?spans:span list -> unit -> string
(** Chrome-trace-format export ([{"traceEvents": [...]}]): duration events
    ([ph:"X"]) for spans, instant events ([ph:"i"]) for markers, [tid] = the
    trace id, timestamps rebased to the earliest span.  Defaults to every
    retained span. *)
