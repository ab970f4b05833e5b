(** Circular log (paper §3.2.1).

    A fixed-size region of an SSD managed as a ring: logical offsets grow
    monotonically and map to [base + offset mod size] on the device.
    Appends are sequential writes at the tail; compaction relocates live
    entries and advances the head to reclaim space.

    Flash read semantics: bytes stay readable after the head passes them,
    until the tail physically wraps over their space — readers holding a
    pre-compaction snapshot (e.g. a GET racing the value compactor) rely
    on this, and detect the rare wrap with a decode failure + retry. *)

exception Log_full of string
(** Raised when an append/reserve exceeds the free space; the LEED store
    backpressures writers before this can happen in steady state. *)

type t

val create :
  name:string -> dev:Leed_blockdev.Blockdev.t -> dev_id:int -> base:int -> size:int -> t
(** [create ~name ~dev ~dev_id ~base ~size] manages the region
    [base, base+size) of [dev]. [dev_id] identifies the SSD within its
    JBOF; it is embedded in swap metadata (§3.6). *)

val name : t -> string
val dev_id : t -> int
val size : t -> int

val head : t -> int
(** Logical offset of the oldest live byte. *)

val tail : t -> int
(** Logical offset one past the newest reserved byte. *)

val used : t -> int
val free : t -> int
val is_empty : t -> bool

val occupancy : t -> float
(** [used / size]; what compaction triggers on. *)

val committed_tail : t -> int
(** Offsets below this are fully durable. Scanners (compaction, recovery)
    must stop here rather than at {!tail}, because appends reserve their
    range before the device write completes. *)

val wait_durable : t -> loff:int -> unit
(** Block until no reservation at or below [loff] is still in flight.
    Callers acknowledging a write must wait for this, not just for their
    own device write: an entry after a torn hole is unreachable to the
    append-order recovery scan (group-commit semantics). *)

val truncate_torn : t -> unit
(** Crash recovery: truncate the log at the first torn hole (a reservation
    whose writer died mid-append) and drop all dead reservations. Entries
    beyond the hole are durable but unreachable, like a torn tail on a
    real log. *)

val append : t -> bytes -> int
(** Append at the tail (reserving the range first, so concurrent appends
    never interleave); returns the entry's logical offset. Blocks for the
    device write. The device copies [data] when the write completes, so
    the caller must not mutate it before [append] returns. A range that
    wraps past the region's end takes two device writes. Raises
    {!Log_full}. *)

val reserve : t -> int -> int
(** Claim tail space immediately without writing — the first half of a
    write-behind append. Raises {!Log_full}. *)

val write_reserved : t -> loff:int -> bytes -> unit
(** Write a blob covering one or more contiguous reservations starting at
    [loff]; all reservations fully inside it become durable. The same
    no-mutation rule as {!append} holds for the blob. *)

val read : t -> loff:int -> len:int -> bytes
(** Read [len] bytes at logical offset [loff]. Blocks for the device read
    (two reads when the range wraps past the region's end). The result is
    a fresh buffer the caller owns. Raises [Invalid_argument] if the range
    was never written or has been physically overwritten by the
    wrap-around. *)

val read_view : t -> loff:int -> len:int -> bytes * int
(** {!read} without the copy: the bytes are at [buf.[pos .. pos+len)] of
    the returned [(buf, pos)]. A range that does not wrap is
    {!Leed_blockdev.Blockdev.read_view}'s result, often the device's own
    backing chunk; a wrapping range takes {!read}'s two reads and comes
    back fresh at [pos = 0]. The caller must treat [buf] as read-only
    and consume it before it next blocks: a later write to the device
    may change it in place. Same range checks as {!read}. *)

val phys : t -> int -> int
(** Device offset backing logical offset [loff] — lets fault injection and
    tests target bit-rot at a specific on-flash entry. *)

val advance_head : t -> int -> unit
(** Reclaim bytes at the head. Only compaction calls this, after
    relocating every live entry below the new head. *)

(** {1 Reader pins}

    The swap-region reclaimer must not reset a log while a reader is
    dereferencing into it; pins make that window explicit. *)

val pinned : t -> int
val with_pin : t -> (unit -> 'a) -> 'a

type stats = { appended : int; reclaimed : int; live : int }

val stats : t -> stats
