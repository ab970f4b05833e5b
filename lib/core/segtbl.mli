(** In-memory segment table (paper §3.2.3).

    The only per-key-range metadata LEED keeps in the SmartNIC's DRAM: one
    entry per segment holding the chain length, a 4-byte offset into the
    key log, one lock bit, and — for the §3.6 data-swapping extension —
    the id of the SSD currently holding the segment. The modeled budget is
    6 bytes per entry; with ~14 objects per segment that is well under the
    0.5 B-per-object ceiling of Challenge 1.

    The simulator spends 8 bytes per entry: one immediate int packing the
    lock bit, an 8-bit device id, an 8-bit chain length and the offset,
    all in one flat array. A segment that has processes waiting for its
    lock also holds a FIFO queue, created on first contention and dropped
    once drained.

    Entries are immediate snapshots: {!entry} allocates nothing, and a
    snapshot does not follow later changes, so a caller that blocks must
    fetch the entry again to see them. A segment's location changes only
    through {!update}, which also keeps the count behind {!swapped_out}. *)

type entry = private int
(** A snapshot of one segment's location (the lock bit is not part of it). *)

val dev : entry -> int
(** SSD id of the log holding the segment. *)

val off : entry -> int
(** Logical offset of the segment in that log; -1 before the first write. *)

val chain_len : entry -> int
(** Buckets in the segment's chain; 0 = not yet materialised on flash. *)

val is_materialised : entry -> bool

type t

val create : nsegments:int -> home_dev:int -> unit -> t
(** Every entry starts on [home_dev] at offset -1 with chain length 0.
    Raises [Invalid_argument] unless [nsegments > 0] and [home_dev] is in
    0–254. *)

val nsegments : t -> int
val entry : t -> int -> entry

val entry_bytes : int
(** Modeled DRAM bytes per entry: the paper's 6 B budget, not the 8 B the
    simulator spends. *)

val modeled_bytes : t -> int
(** The DRAM an 8 GB Stingray would actually spend on this table:
    [nsegments * entry_bytes]. *)

val update : t -> seg:int -> dev:int -> off:int -> chain_len:int -> unit
(** Point the segment at a fresh on-flash copy. The single place a
    segment's location changes; the lock bit is kept. Raises
    [Invalid_argument] for a value the entry cannot hold: [dev] outside
    0–254, [chain_len] outside 0–255, or [off] below -1 or above 2{^46}-2. *)

(** {1 The segment lock (the "one lock bit" of §3.2.2)}

    Serialises PUT/DEL, value-log compaction, and COPY on one segment;
    waiters are woken FIFO, and {!unlock} hands the lock to the oldest
    waiter without releasing it. *)

val lock : t -> int -> unit
val unlock : t -> int -> unit
val try_lock : t -> int -> bool
val with_lock : t -> int -> (unit -> 'a) -> 'a

val waiter_queues : t -> int
(** Segments that currently hold a waiter queue: those with at least one
    process blocked in {!lock}. *)

val swapped_out : t -> int list
(** Segments currently living on a foreign SSD's swap region, awaiting
    merge-back (§3.6), in increasing order. O(1) when there are none,
    which is the usual answer; a full scan otherwise. *)
