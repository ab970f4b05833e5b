(** Deterministic virtual-time tracing for the simulation stack.

    This is the observability substrate of the repo: every layer (netsim,
    blockdev, engine, node, control, client) emits spans, instants and
    counters through this module, and the result can be written as Chrome
    [trace_event] JSON ({{:https://ui.perfetto.dev}Perfetto} /
    [chrome://tracing]) or inspected in memory by tests.

    Design rules, enforced by tests and simlint:

    - {b Zero cost when off.} Every emitter first reads one mutable
      boolean ({!on}); with tracing disabled the only overhead at an
      instrumented site is that branch. Call sites that would allocate
      argument lists guard them with [if Trace.on () then ...].
    - {b Virtual time only.} All timestamps come from [Sim.now] — never
      the wall clock — so two same-seed runs produce byte-identical
      traces ({!to_json} is deterministic, including float formatting).
    - {b No virtual-time perturbation.} Emitting an event never blocks,
      delays, or schedules: a traced run and an untraced run of the same
      seed have identical simulated timelines.

    The schema (categories, span names, args) is documented in
    [docs/TRACING.md]; the validator {!validate_file} checks a written
    file against it. *)

(** {1 Tracks}

    A track is a (process id, thread id) pair — the row the event lands
    on in the trace viewer. Components allocate one track each at
    construction time ([net], [jbof3], [jbof3/ssd1], [control], ...);
    ids are handed out by a deterministic counter. *)

type track = private { pid : int; tid : int }
(** A trace row. [pid] groups related rows (e.g. one storage node);
    [tid] is the row within the group. *)

val root : track
(** The pre-registered top-level track ([pid 0], named ["sim"]); the
    default when an emitter is given no [?track]. *)

val new_track : ?parent:track -> string -> track
(** [new_track name] registers a new top-level track (a Chrome
    "process"); [new_track ~parent name] registers a named row inside
    [parent]'s group (a Chrome "thread"). Registration is cheap and
    happens even while tracing is off, so components may allocate tracks
    unconditionally at construction time. *)

(** {1 Event arguments} *)

(** Typed argument values attached to events, rendered into the JSON
    [args] object. *)
type arg = Int of int | Float of float | Str of string | Bool of bool

(** {1 Capture control} *)

val on : unit -> bool
(** Whether capture is currently enabled. Instrumented sites use this to
    skip argument-list construction when tracing is off. *)

val start : unit -> unit
(** Reset the collector (drop all events and tracks, restart the id
    counters) and enable capture into an unbounded in-memory buffer. *)

val stop : unit -> unit
(** Disable capture. Collected events are retained for {!events} /
    {!to_json}. *)

(** {1 Emitters}

    All emitters are no-ops while capture is off and never advance
    virtual time. They must be called inside [Sim.run] (timestamps read
    [Sim.now]). *)

val span :
  ?track:track ->
  ?args:(string * arg) list ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [span ~cat name f] runs [f ()] and records a complete ('X') event
    covering its virtual-time extent. If [f] raises, the span is still
    recorded — with an extra [exn] argument — and the exception is
    re-raised. Overlapping spans on one track are fine (the viewer nests
    them by containment).

    A hot path that branches on {!on} before building [args] (and the
    closure [f]) allocates nothing per call while tracing is off. *)

val complete :
  ?track:track ->
  ?args:(string * arg) list ->
  cat:string ->
  string ->
  since:float ->
  unit
(** [complete ~cat name ~since] records a complete ('X') event from
    absolute virtual time [since] (seconds, from [Sim.now]) to now. For
    sites where the span's arguments are only known at the end. *)

val instant :
  ?track:track ->
  ?args:(string * arg) list ->
  cat:string ->
  string ->
  unit
(** Record a zero-duration ('i') event at the current virtual time. *)

val counter : ?track:track -> cat:string -> string -> (string * float) list -> unit
(** [counter ~cat name series] records a 'C' event: one named counter
    with one value per series. Chrome draws each [name] as a stacked
    area chart over time. *)

val next_id : unit -> int
(** A fresh id for an async span pair, from a deterministic counter.
    Returns 0 (no allocation of meaning) while capture is off. *)

val async_begin :
  ?track:track ->
  ?args:(string * arg) list ->
  cat:string ->
  id:int ->
  string ->
  unit
(** Open an async ('b') span. Async spans tie together work that moves
    between tracks (a message in flight, a command in a device queue);
    the matching {!async_end} must use the same [cat], [name] and [id]. *)

val async_end :
  ?track:track ->
  ?args:(string * arg) list ->
  cat:string ->
  id:int ->
  string ->
  unit
(** Close an async ('e') span opened by {!async_begin}. *)

(** {1 In-memory access (tests)} *)

type event = {
  ts : float;  (** event start, microseconds of virtual time *)
  ph : char;  (** Chrome phase: 'X', 'i', 'C', 'b' or 'e' *)
  cat : string;  (** category (layer): net, dev, engine, node, control, client, sim *)
  name : string;  (** event name within the category *)
  pid : int;  (** track process id *)
  tid : int;  (** track thread id *)
  id : int;  (** async span id ('b'/'e' only; 0 otherwise) *)
  dur : float;  (** duration in microseconds ('X' only; 0 otherwise) *)
  args : (string * arg) list;  (** typed arguments *)
}
(** One captured event, as stored in the buffer. *)

val events : unit -> event list
(** All captured events, in emission order (oldest first). *)

val count : unit -> int
(** Number of captured events. *)

val tracks : unit -> (int * int * string) list
(** Registered tracks as [(pid, tid, name)], in registration order. *)

(** {1 Chrome trace_event JSON} *)

val to_json : unit -> string
(** Serialize the collected trace as a Chrome [trace_event] JSON object
    ([{"traceEvents": [...]}]): track-name metadata records first, then
    every retained event in emission order. Deterministic — same events,
    same bytes. *)

val write_file : string -> unit
(** Write {!to_json} to a file. *)

(** {1 JSON and validation}

    A hand-rolled JSON emitter and parser (no JSON library is assumed),
    shared by the bench harness's [BENCH_*.json] files, and a schema
    checker for files produced by {!write_file}, used by the
    [leed trace-validate] CLI and check.sh. *)

module Json : sig
  (** Minimal JSON syntax tree. *)
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Int of int
        (** emitted without a fraction at any magnitude; {!parse} never
            produces it (every number parses as [Num]) *)
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val write : string -> t -> unit
  (** [write path v] writes [v] to [path] in compact form (no whitespace;
      [Num] as [%.9g], [null] when not finite; strings escaped as in the
      trace writer), plus a newline. *)

  val parse : string -> (t, string) result
  (** Parse a complete JSON document; [Error] carries a message with an
      offset. *)
end

val validate : string -> (string, string) result
(** Validate a JSON string against the schema in [docs/TRACING.md]:
    well-formed JSON with a [traceEvents] array; every event carries
    [ph]/[name]/[pid]/[tid] of the right types; known phases only;
    non-negative timestamps and durations; counter args numeric; async
    'e' events matched by a preceding 'b' with the same [(cat, id,
    name)]. [Ok] carries a one-line summary, [Error] the first
    violation. *)

val validate_file : string -> (string, string) result
(** {!validate} applied to a file's contents. *)
