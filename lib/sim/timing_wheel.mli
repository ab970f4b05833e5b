(** Hierarchical timing wheel scheduler with an overflow heap.

    A small sorted "front" list holds every event at or before the
    current edge; three 32768-slot wheel levels cover ~3.9 ms, ~128 s
    and ~48 days beyond it (at the fixed ~0.12 us tick), and an overflow
    heap absorbs everything past that horizon. Adds are O(1); the
    amortised pop cost is independent of the total pending count, which
    is where this scheduler beats the O(log n) binary heap at
    cluster-scale pending populations. Events are {!Event_store}
    handles, linked through the store's slab.

    Ordering contract: identical to {!Event_store.before} — [(time,
    key, seq)] lexicographic — and bit-identical in dispatch order to
    {!Event_heap}. The tick is a power of two (exact time-to-tick
    mapping) and the edge is an integer tick index; the edge never
    passes an unmigrated event, and equal-time events always share a
    bucket, so no reordering is possible. *)

type t
(** A hierarchical timing wheel of {!Event_store} handles. *)

val create : Event_store.t -> t
(** A fresh, empty wheel over the handles of the given store. *)

val length : t -> int
(** Number of events currently queued. *)

val add : t -> int -> unit
(** Insert a handle whose ordering fields are set; the wheel owns its
    [next] link until {!pop} returns it. O(1). *)

val pop : t -> int
(** Remove and return the minimum handle per {!Event_store.before};
    {!Event_store.nil} when empty. Amortised O(1): a head unlink from
    the sorted front list. *)

val peek_time : t -> float
(** Time of the earliest event without removing it; [infinity] when
    empty. May advance the wheel edge over empty slots (observably
    pure). *)

val pop_until : t -> int -> int
(** [pop_until w limit] pops the minimum handle if its stamp
    ({!Event_store.stamp_of_time}) is [<= limit]; {!Event_store.nil}
    when the wheel is empty or the minimum lies beyond [limit]. Fused
    peek-then-pop for the engine's hot loop. *)
