(** Pluggable event scheduler for the DES engine.

    The SCHEDULER contract is the ordering law of module type {!S}:
    events come back in [(time, key, seq)] lexicographic order
    ({!Event_store.before}), so every conforming implementation yields
    bit-identical dispatch sequences from the engine — the property
    that keeps race-detector digests and same-seed chaos runs stable
    no matter which scheduler a run selects ([Sim.run ?sched]). Three
    implementations ship: a hierarchical timing wheel (the engine's
    default), a calendar queue, and the binary heap the equivalence
    tests use as the oracle. All three order handles of one
    {!Event_store}, which the engine owns. *)

(** The SCHEDULER contract. Implementations must return handles in
    exactly [(time, key, seq)] lexicographic order
    ({!Event_store.before}): earliest time first; among equal times the
    smallest tie-break key, then the smallest sequence number. No
    epsilon, no approximation — dispatch order across implementations
    must be bit-identical. *)
module type S = sig
  type t
  (** Scheduler state. *)

  val create : Event_store.t -> t
  (** A fresh, empty scheduler over the handles of the given store. *)

  val add : t -> int -> unit
  (** Insert a handle whose ordering fields are set; the scheduler owns
      the handle's [next] link until {!pop} returns it. *)

  val pop : t -> int
  (** Remove and return the minimum handle per the ordering contract;
      {!Event_store.nil} when empty. *)

  val pop_until : t -> int -> int
  (** Pop the minimum handle if its stamp ({!Event_store.stamp_of_time})
      is [<= limit]; {!Event_store.nil} when empty or when the minimum
      lies beyond [limit]. Fused peek-then-pop so the engine's hot loop
      performs one call and touches no float. *)

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

val create : kind -> Event_store.t -> t
(** Instantiate a fresh, empty scheduler of the given kind over the
    handles of the given store. *)

val kind : t -> kind
(** The kind this instance was created with. *)

val add : t -> int -> unit
(** Insert a handle (see {!S.add}). *)

val pop : t -> int
(** Remove the minimum handle; {!Event_store.nil} when empty (see
    {!S.pop}). *)

val pop_until : t -> int -> int
(** Pop the minimum handle if its stamp is [<= limit];
    {!Event_store.nil} otherwise (see {!S.pop_until}). *)

val peek_time : t -> float
(** Time of the minimum event; [infinity] when empty (see
    {!S.peek_time}). *)

val length : t -> int
(** Number of queued handles, tombstones included (see {!S.length}). *)

val name : kind -> string
(** Short display name: ["heap"], ["calendar"] or ["wheel"]. *)

val kinds : kind list
(** All implementations, reference first. *)
