(** In-memory segment table (paper §3.2.3).

    The only per-key-range metadata LEED keeps in the SmartNIC's DRAM: one
    entry per segment holding the chain length, a 4-byte offset into the
    key log, one lock bit, and — for the §3.6 data-swapping extension —
    the id of the SSD currently holding the segment. The modeled budget is
    6 bytes per entry; with ~14 objects per segment that is well under the
    0.5 B-per-object ceiling of Challenge 1.

    Entries are [private]: callers read them freely, but a segment's
    location changes only through {!update}, which also keeps the count
    behind {!swapped_out}. *)

type entry = private {
  mutable dev : int;        (** SSD id of the log holding the segment *)
  mutable off : int;        (** logical offset of the segment in that log *)
  mutable chain_len : int;  (** 0 = segment not yet materialised on flash *)
  mutable locked : bool;
  mutable waiters : (unit -> unit) Queue.t;
}

type t

val create : nsegments:int -> home_dev:int -> unit -> t
val nsegments : t -> int
val entry : t -> int -> entry
val is_materialised : entry -> bool

val modeled_bytes : t -> int
(** The DRAM an 8 GB Stingray would actually spend on this table. *)

val update : t -> seg:int -> dev:int -> off:int -> chain_len:int -> unit
(** Point the segment at a fresh on-flash copy. The single place a
    segment's location changes. *)

(** {1 The segment lock (the "one lock bit" of §3.2.2)}

    Serialises PUT/DEL, value-log compaction, and COPY on one segment;
    waiters are woken FIFO. *)

val lock : t -> int -> unit
val unlock : t -> int -> unit
val try_lock : t -> int -> bool
val with_lock : t -> int -> (unit -> 'a) -> 'a

val swapped_out : t -> int list
(** Segments currently living on a foreign SSD's swap region, awaiting
    merge-back (§3.6), in increasing order. O(1) when there are none,
    which is the usual answer; a full scan otherwise. *)
