(** Discrete-event simulation engine.

    The simulator provides SimPy-style cooperative processes implemented
    with OCaml 5 effects: a process is any [unit -> unit] function that may
    call the blocking operations of this module ({!delay}, {!suspend}, the
    synchronisation primitives). Time is a [float] number of seconds.

    Determinism: events scheduled for the same instant fire in a
    deterministic order chosen by the run's {!tiebreak} policy (FIFO
    scheduling order by default), and all randomness in the wider
    simulator flows from seeded {!Rng.t} values, so a simulation is
    reproducible bit-for-bit. The determinism {e contract} this repo
    enforces is stronger than "same seed, same numbers": observables
    must also be invariant across every legal tie-break ordering of
    simultaneous events — that is what the simrace detector
    ([leed race]) checks by re-running workloads under perturbed
    policies. See DESIGN.md §11. *)

exception Deadlock of string
(** Raised by {!run} when no events remain but the main process has not
    finished — every remaining process is blocked forever. *)

exception Main_incomplete
(** Raised by {!run} when the [until] horizon was reached (or {!stop} was
    called) before the main process produced its result. *)

(** Ordering policy for events scheduled at the same instant.

    [Fifo] (the default) fires equal-time events in scheduling order.
    [Perturbed seed] orders them by a seeded stateless hash of each
    event's sequence number instead — a deterministic keyed shuffle
    exploring a different legal ordering; two runs with the same
    perturbation seed are still bit-identical. [Perturb_first] applies
    the perturbed key only to the first [limit] scheduled events and
    FIFO keys afterwards; the race detector bisects on [limit] to find
    the first event whose reordering changes the observables. *)
type tiebreak = Fifo | Perturbed of int | Perturb_first of { seed : int; limit : int }

(** Which event-scheduler data structure drives the run (see
    {!Scheduler}): [Wheel], a hierarchical timing wheel with overflow
    heap, is the default and the fastest end to end; [Binary_heap] is
    the O(log n) oracle the equivalence tests compare against;
    [Calendar] is a Brown '88 calendar queue. All three obey the same
    [(time, key, seq)] ordering contract exactly, so the dispatch
    sequence — and every race/chaos digest built on it — is
    bit-identical whichever one a run selects; only speed differs. *)
type sched = Scheduler.kind = Binary_heap | Calendar | Wheel

(** One executed scheduler event, as seen by [run]'s [?on_dispatch]
    hook: its virtual time, scheduling sequence number, and the label
    of the process (or timer context) that scheduled it. *)
type dispatch = { d_time : float; d_seq : int; d_label : string }

val run :
  ?until:float ->
  ?checks:bool ->
  ?tiebreak:tiebreak ->
  ?sched:sched ->
  ?on_dispatch:(dispatch -> unit) ->
  (unit -> 'a) ->
  'a
(** [run main] creates a fresh simulation clock at time 0, executes [main]
    as the root process and drives the event loop until [main] returns,
    [until] is reached, {!stop} is called, or no events remain. The loop
    stops as soon as [main] has its result: events still pending then
    (daemon processes such as periodic compactors and heartbeats, armed
    timers) are dropped, not drained. Returns [main]'s result. Nested
    runs are permitted (the outer engine is restored on exit). On entry
    it tightens the process's GC policy; see {!gc_space_overhead}.

    A run owns its memory. An outermost run (one entered
    with no enclosing run) first runs a full major collection, so the
    worlds earlier runs dropped are reclaimed before it builds its own;
    a nested run collects nothing. When the run ends, however it ends
    (a result, {!Deadlock}, {!Main_incomplete}, or an exception a
    process raised), every fiber it still holds is unwound: parked
    ones, processes sleeping in {!delay} or blocked in {!suspend} (so
    in every {!Ivar}, {!Mailbox} and {!Resource} wait), woken ones not
    yet run, and pending spawns onto pooled fibers. Each unwinds with a
    private exception raised at the point where it blocked, so its
    [Fun.protect ~finally] and exception handlers run once; a spawn
    that never started runs nothing. While this teardown runs, every
    engine operation ({!now}, {!spawn}, {!after}, {!delay}, {!suspend},
    a resume, {!run} itself) raises that exception too: unwinding
    schedules no event on any engine, pushes no trace event, and moves
    no engine counter. What an unwinding fiber raises is dropped.

    [~checks:true] turns on the {!Invariant} runtime sanitizer for the
    duration of the run (event-time monotonicity, device queue bounds,
    token conservation, replication chain consistency); [~checks:false]
    forces it off. When omitted, the sanitizer state is inherited — off by
    default, on under [LEED_SANITIZE=1]. The previous state is restored
    when the run finishes.

    [~tiebreak] selects the equal-time event ordering policy (default
    {!Fifo}). [~sched] selects the scheduler data structure (default
    {!Wheel}; pass {!Binary_heap} for the reference oracle); the choice
    never changes observable behaviour, only performance. [~on_dispatch] is called once per executed event,
    before it runs — the race detector's execution-log channel; leave it
    unset on hot paths (the per-event cost when unset is one branch). *)

val gc_minor_heap_words : int
(** The minor-heap floor, in words, that {!run} sets for the process:
    room for the in-flight ops' short-lived state many times over, so
    it dies young instead of being promoted. *)

val gc_space_overhead : int
(** The cap {!run} sets on the GC's [space_overhead] (percent): 20, so
    the major heap's free space stays near a fifth of its live data,
    most of which is the simulated flash image. A tighter cap costs
    more major-GC work per allocated word; a sweep over 80, 40, 20 and
    10 chose 20 as the smallest that costs no measurable wall time.

    On entry {!run} raises [Gc.minor_heap_size] to
    {!gc_minor_heap_words} and lowers [space_overhead] to this cap, each
    only when the current value is looser, and never restores them: a
    larger minor heap or smaller overhead set first (say by
    [OCAMLRUNPARAM=s=...,o=...]) is kept, and a nested or later run is a
    no-op. The GC never touches simulated state, so the policy changes
    memory and wall time only. No other module sets GC parameters or
    forces a collection (simlint R8). *)

val now : unit -> float
(** Current simulation time, in seconds. Must be called inside {!run}. *)

val delay : float -> unit
(** Block the calling process for the given number of seconds. *)

val spawn : ?label:string -> (unit -> unit) -> unit
(** Start a new process at the current instant. The caller keeps running
    until it blocks; the child runs once the caller yields. [label]
    names the process in race-attribution output and dispatch logs;
    when omitted the child inherits the spawner's label (no
    allocation). The child runs on a pooled fiber when one is parked
    (DESIGN.md §12); which fiber it gets never changes when it runs. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process and hands [register] a
    single-shot [resume] closure. The process continues, with the value
    passed, at the simulation instant when [resume] is first called; later
    calls are ignored. This is the primitive from which all blocking
    synchronisation (and race-free timeouts) is built. *)

val after : float -> (unit -> unit) -> unit
(** [after t f] runs the non-blocking callback [f] in [t] seconds, without
    creating a process. Unlike {!delay}, usable from any context (including
    {!suspend} registration callbacks). *)

val yield : unit -> unit
(** Reschedule the calling process behind every event already queued for
    the current instant. *)

val stop : unit -> unit
(** Terminate the event loop after the current event completes. *)

(** {1 Scheduler introspection}

    Cheap counters over the running engine, read by the observability
    layer's periodic sampler ([Leed_core.Obs]). All must be called
    inside {!run}. *)

val events_dispatched : unit -> int
(** Number of events executed since the current run started. Cancelled
    timeouts (see {!Ivar.read_timeout}) are never executed and never
    counted. *)

val heap_depth : unit -> int
(** Number of live events currently pending: scheduled, and neither
    executed nor cancelled. The name predates pluggable schedulers; the
    count is the same whichever structure the run selected. A cancelled
    timeout stops counting at once, though its tombstone stays queued in
    the scheduler until the clock reaches it. *)

val max_pending_events : unit -> int
(** High-water mark of {!heap_depth} (live events, tombstones excluded)
    since the current run started — the "max pending" column of the
    scale benchmark. *)

val processes_spawned : unit -> int
(** Number of {!spawn} calls since the run started. It counts spawns,
    not fibers: a spawn that resumes a parked fiber counts the same as
    one that starts a new fiber. *)

val fork_join : (unit -> unit) list -> unit
(** Spawn every thunk and block until all have finished. *)

val fork_join_named : (string option * (unit -> unit)) list -> unit
(** {!fork_join} with an optional {!spawn} label per thunk, so workers
    are attributable in race-detection output. *)

val every : period:float -> (unit -> bool) -> unit
(** [every ~period f] spawns a process that calls [f] every [period]
    seconds until [f] returns [false]. *)

(** {1 Time helpers} *)

val us : float -> float
(** [us x] is [x] microseconds expressed in seconds. *)

val ms : float -> float
(** [ms x] is [x] milliseconds expressed in seconds. *)

val to_us : float -> float
(** Convert seconds to microseconds (for reporting). *)

(** {1 Virtual-time comparisons}

    The only sanctioned way to compare the clock against a deadline or
    stored timestamp. The helpers are epsilon-free — the clock only
    takes values that were actually scheduled, so exact float
    comparison is sound — but centralising them keeps raw float
    comparisons on virtual time out of the wider codebase, where they
    tend to encode hidden assumptions about event ordering (simlint
    rule R7 rejects [Sim.now () = t] and friends outside lib/sim). *)

val reached : float -> bool
(** [reached t] is true once the clock is at or past [t]: the loop
    guard [while not (Sim.reached stop_at) do ... done] replaces
    [while Sim.now () < stop_at]. *)

val past : float -> bool
(** [past t] is true strictly after [t] (now > t). *)

val same_instant : float -> bool
(** [same_instant t] is true exactly at [t] (now = t). Legitimate uses
    are rare — an event firing at its own scheduled time — and worth a
    comment at the call site. *)

(** {1 Synchronisation} *)

(** Write-once variables. *)
module Ivar : sig
  type 'a t
  (** A variable that is filled at most once; readers block until then. *)

  val create : unit -> 'a t
  (** A fresh, empty variable. *)

  val fill : 'a t -> 'a -> unit
  (** Fill the variable and wake all readers. Raises [Invalid_argument] if
      already filled. *)

  val try_fill : 'a t -> 'a -> bool
  (** Like {!fill} but returns [false] instead of raising. *)

  val is_filled : 'a t -> bool
  (** Whether the variable has been filled. *)

  val on_fill : 'a t -> ('a -> unit) -> unit
  (** Register a callback run at fill time (immediately if already full). *)

  val read : 'a t -> 'a
  (** Block until filled. *)

  val read_timeout : 'a t -> float -> 'a option
  (** Block until filled or the timeout elapses, whichever happens first.
      When the fill wins, the timer is cancelled: it is never executed
      and leaves no pending event behind. *)
end

(** Unbounded FIFO channels with blocking receive. *)
module Mailbox : sig
  type 'a t
  (** A FIFO channel; sends never block, receives may. *)

  val create : unit -> 'a t
  (** A fresh, empty channel. *)

  val send : 'a t -> 'a -> unit
  (** Never blocks: hands the value to the oldest waiting receiver, or
      queues it. *)

  val try_recv : 'a t -> 'a option
  (** The oldest queued value, or [None] without blocking. *)

  val recv : 'a t -> 'a
  (** Block until a value is available, then return the oldest. *)

  val recv_timeout : 'a t -> float -> 'a option
  (** [None] if nothing arrives within the timeout. When a value arrives
      first, the timer is cancelled as in {!Ivar.read_timeout}. *)
end

(** Counted resources with FIFO admission (SimPy's [Resource]): models
    cores, device queue slots, link capacity. *)
module Resource : sig
  type t
  (** A counted resource: up to [capacity] units held at once, FIFO
      admission for waiters. *)

  val create : ?name:string -> capacity:int -> unit -> t
  (** A fresh resource with the given (positive) capacity; [name] appears
      in error messages and sanitizer reports. *)

  val acquire : t -> unit
  (** Take one unit, blocking behind earlier waiters until it fits. *)

  val release : t -> unit
  (** Return one unit and wake fitting waiters in FIFO order. Raises
      [Invalid_argument] on over-release. *)

  val with_ : t -> (unit -> 'a) -> 'a
  (** Acquire, run, release (also on exception). *)

  val in_use : t -> int
  (** Units currently held. *)

  val waiting : t -> int
  (** Number of processes queued behind {!acquire}. *)

  val capacity : t -> int
  (** Total capacity the resource was created with. *)

  val utilisation : t -> float
  (** Time-averaged fraction of capacity in use since the run started. *)

  val busy_time : t -> float
  (** Cumulative busy integral in unit-seconds: the time integral of
      {!in_use} since the run started. Divide by elapsed time for mean
      occupancy; the energy model uses it to derive observed device
      activity. *)
end
