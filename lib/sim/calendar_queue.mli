(** Calendar queue scheduler (R. Brown, CACM 1988).

    Events hash by time into a circular array of fixed-width "day"
    buckets, each a sorted intrusive list of {!Event_store} handles; the
    structure resizes and re-estimates the bucket width as the
    population grows or shrinks, giving O(1) amortised add/pop for
    reasonably uniform event-time distributions.

    Ordering contract: identical to {!Event_store.before} — [(time,
    key, seq)] lexicographic — and bit-identical in dispatch order to
    {!Event_heap}. Bucket widths are powers of two so time-to-bucket
    mapping is exact float arithmetic, and the scan position is an
    integer virtual-bucket number, so no epsilon or drift can reorder
    events. *)

type t
(** A calendar queue of {!Event_store} handles. *)

val create : Event_store.t -> t
(** A fresh, empty queue over the handles of the given store: 256
    buckets of [0x1p-17] s (~7.6 us); both adapt automatically as
    events accumulate. *)

val length : t -> int
(** Number of events currently queued. *)

val add : t -> int -> unit
(** Insert a handle whose ordering fields are set; the queue owns its
    [next] link until {!pop} returns it. O(1) amortised (sorted insert
    within one bucket, occasional resize). *)

val pop : t -> int
(** Remove and return the minimum handle per {!Event_store.before};
    {!Event_store.nil} when empty. *)

val peek_time : t -> float
(** Time of the earliest event without removing it; [infinity] when
    empty. May advance the internal scan position over empty buckets
    (observably pure). *)

val pop_until : t -> int -> int
(** [pop_until q limit] pops the minimum handle if its stamp
    ({!Event_store.stamp_of_time}) is [<= limit]; {!Event_store.nil}
    when the queue is empty or the minimum lies beyond [limit]. Fused
    peek-then-pop for the engine's hot loop. *)
