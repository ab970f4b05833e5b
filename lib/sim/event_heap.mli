(** Binary min-heap of event handles — the reference scheduler.

    Ordering is {!Event_store.before}: [(time, key, seq)] lexicographic.
    The default FIFO policy assigns every event key 0 (pure insertion
    order); the race detector assigns seeded pseudo-random keys to
    explore alternative legal orderings of simultaneous events.

    O(log n) [add]/[pop] regardless of the time distribution — the
    robust baseline the calendar queue and timing wheel are checked
    against for bit-identical dispatch order. *)

type t
(** An array-backed binary min-heap of {!Event_store} handles. *)

val create : Event_store.t -> t
(** A fresh, empty heap over the handles of the given store. *)

val length : t -> int
(** Number of events currently queued. *)

val add : t -> int -> unit
(** Insert a handle whose ordering fields are set. The heap owns the
    handle's [next] link until {!pop} returns it (it does not use it). *)

val pop : t -> int
(** Remove and return the minimum handle per {!Event_store.before};
    {!Event_store.nil} when empty. *)

val peek : t -> int
(** The minimum handle without removing it; {!Event_store.nil} when
    empty. *)

val peek_time : t -> float
(** Time of the earliest event without removing it; [infinity] when
    empty. *)

val pop_until : t -> int -> int
(** [pop_until h limit] pops the minimum handle if its stamp
    ({!Event_store.stamp_of_time}) is [<= limit]; {!Event_store.nil}
    when the heap is empty or the minimum lies beyond [limit]. *)
