(** Shared mutable event cell for the pluggable event schedulers.

    All {!Scheduler} implementations store these cells. [Sim] owns a
    freelist of them, so on the steady-state hot path scheduling an
    event mutates a recycled cell instead of allocating a record. The
    intrusive [next] link is used by the freelist and by the intrusive
    bucket/slot lists of the calendar queue and timing wheel; a cell is
    on at most one list at a time. *)

type t = {
  mutable time : float;  (** absolute virtual time of the event, seconds *)
  mutable thi : int;
  mutable tlo : int;
      (** scheduler-private cache of the IEEE-754 bits of [time], split
          hi/lo 32, set by {!cache_time_bits}. Lets {!before_bits} order
          cells without touching the boxed float. Placed (with [key],
          [seq], [next]) in the cell's first cache line so a sorted
          bucket walk over cold cells costs one line each; the
          dispatch-only [label]/[run] trail at the end. *)
  mutable key : int;  (** equal-time tie-break key (see {!Sim.tiebreak}) *)
  mutable seq : int;  (** global scheduling sequence number *)
  mutable next : t;  (** intrusive link; physically [nil] when unlinked *)
  mutable tick : int;
      (** scheduler-private cache: the timing wheel stores the event's
          integer tick index here at [add] (the calendar queue its
          virtual bucket number) so bucket walks never deref the boxed
          [time] float. Meaningless outside the scheduler that set it. *)
  mutable label : string;  (** process/timer label for attribution *)
  mutable run : unit -> unit;  (** the event body *)
}

val time : t -> float
(** The event's absolute virtual time (reads [time]). *)

val set_time : t -> float -> unit
(** Set the event's absolute virtual time. *)

val nil : t
(** Self-referencing sentinel. List ends and "no event" are represented
    by physical equality ([==]) with [nil] so the hot loop allocates no
    options. Never store or mutate [nil] itself. *)

val make : unit -> t
(** A fresh, unlinked cell (all fields inert, [next = nil]). *)

val before : t -> t -> bool
(** The scheduler ordering contract: [(time, key, seq)] lexicographic.
    Earlier time first; at equal times the smaller tie-break [key], then
    the smaller sequence number. Total order on distinct live cells
    (sequence numbers are unique within a run). *)

val cache_time_bits : t -> unit
(** Store the IEEE-754 bit pattern of [time] into [thi]/[tlo]. Call
    from a scheduler's [add] before relying on {!before_bits}. *)

val refresh_time : t -> unit
(** Rewrite [time] from the bits cached by {!cache_time_bits} — the
    bit-identical float, freshly boxed. For scheduler pop paths: the box
    stored at schedule time is a cold cache line by dispatch, while the
    cached bits sit in the cell line the pop already touched. *)

val before_bits : t -> t -> bool
(** Exactly the {!before} order, computed from the integer fields cached
    by {!cache_time_bits} — no boxed-float dereference, so a cold cell
    costs one cache line instead of two on sorted bucket walks. Sound
    because simulation times are nonnegative, where the IEEE-754 bit
    pattern is monotonic in the float value (ulp-exact, no epsilon). *)

val cancelled : unit -> unit
(** The tombstone body. A pending cell whose [run] is physically this
    closure is a cancelled event: it keeps its place in the scheduler
    (its [time], [key] and [seq] are untouched) and the engine recycles
    it when popped instead of dispatching it. Raises [Invalid_argument]
    if ever run. *)

val clear : t -> unit
(** Reset [label], [run] and [next] so a recycled cell retains no dead
    closures or strings, and [seq] to 0 — a value no scheduled event
    carries — so a stale cancel handle on the cell no longer matches. *)
