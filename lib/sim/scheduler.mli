(** Pluggable event scheduler for the DES engine.

    The SCHEDULER contract is the ordering law of module type {!S}:
    events come back in [(time, key, seq)] lexicographic order
    ({!Sched_event.before}), so every conforming implementation yields
    bit-identical dispatch sequences from the engine — the property
    that keeps race-detector digests and same-seed chaos runs stable
    no matter which scheduler a run selects ([Sim.run ?sched]). Three
    implementations ship: a hierarchical timing wheel (the engine's
    default), a calendar queue, and the binary heap the equivalence
    tests use as the oracle. *)

module Event = Sched_event
(** The shared event-cell type all schedulers store. *)

(** The SCHEDULER contract. Implementations must return events in
    exactly [(time, key, seq)] lexicographic order ({!Sched_event.before}):
    earliest time first; among equal times the smallest tie-break key,
    then the smallest sequence number. No epsilon, no approximation —
    dispatch order across implementations must be bit-identical. *)
module type S = sig
  type t
  (** Scheduler state. *)

  val name : string
  (** Short identifier used by CLIs and benchmark output. *)

  val create : unit -> t
  (** A fresh, empty scheduler. *)

  val add : t -> Event.t -> unit
  (** Insert an event cell; the scheduler owns the cell until {!pop}
      returns it. *)

  val pop : t -> Event.t
  (** Remove and return the minimum event per the ordering contract;
      [Event.nil] (test with [==]) when empty. *)

  val pop_until : t -> float -> Event.t
  (** Pop the minimum event if its time is [<= limit]; [Event.nil] when
      empty or when the minimum lies beyond [limit]. Fused
      peek-then-pop so the engine's hot loop performs one call and no
      float boxing per dispatch. *)

  val peek_time : t -> float
  (** Time of the minimum event without removing it; [infinity] when
      empty. *)

  val length : t -> int
  (** Number of events currently queued. *)
end

(** Which implementation to use: [Binary_heap] is the O(log n)
    reference, [Calendar] the Brown '88 calendar queue, [Wheel] the
    hierarchical timing wheel with overflow heap (fastest at
    cluster-scale pending populations, and {!Sim.run}'s default). *)
type kind = Binary_heap | Calendar | Wheel

type t
(** A scheduler instance (one per {!Sim.run}). *)

val create : kind -> t
(** Instantiate a fresh, empty scheduler of the given kind. *)

val kind : t -> kind
(** The kind this instance was created with. *)

val add : t -> Event.t -> unit
(** Insert an event cell (see {!S.add}). *)

val pop : t -> Event.t
(** Remove the minimum event; [Event.nil] when empty (see {!S.pop}). *)

val pop_until : t -> float -> Event.t
(** Pop the minimum event if its time is [<= limit]; [Event.nil]
    otherwise (see {!S.pop_until}). *)

val peek_time : t -> float
(** Time of the minimum event; [infinity] when empty (see
    {!S.peek_time}). *)

val name : kind -> string
(** Canonical CLI name: ["heap"], ["calendar"] or ["wheel"]. *)

val kinds : kind list
(** All implementations, reference first. *)

val names : string list
(** Canonical names of {!kinds}, for CLI help strings. *)

val of_name : string -> kind option
(** Parse a scheduler name (accepts the canonical names plus
    ["binary-heap"], ["calendar-queue"], ["timing-wheel"]). *)
