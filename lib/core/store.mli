(** The LEED per-partition data store (paper §3.2–§3.3).

    One store owns a key range on one SSD partition: a circular key log
    holding segments (arrays of ≤512 B buckets), a circular value log, and
    a DRAM segment table ({!Segtbl}). NVMe costs match the paper: GET = 2
    accesses (segment + value), PUT = 3 with the segment read and value
    append overlapped, DEL = 2 (key log only, tombstone).

    A PUT may be directed at *foreign* logs — another SSD's swap region
    (§3.6); the store's segment table tracks the foreign location, reads
    follow it transparently, and the compactor merges swapped segments
    back home. *)

type config = {
  nsegments : int;         (** segments per store; ~14 objects each *)
  compact_trigger : float; (** log occupancy that wakes the compactor *)
  compact_target : float;  (** occupancy the compactor drives down to *)
  subcompactions : int;    (** S-way intra-parallelism (§3.3.1) *)
  compaction_window : int; (** bytes examined per compaction round *)
}

val default_config : config

type op_kind = Get | Put | Del

(** Per-command statistics, including the SSD-vs-CPU wall-time attribution
    behind the Figure 11 breakdown. *)
type op_stats = {
  latency : Leed_stats.Histogram.t;
  ssd_time : Leed_stats.Summary.t;
  cpu_time : Leed_stats.Summary.t;
  mutable count : int;
  mutable nvme_accesses : int;
}

type t

val create : ?config:config -> name:string -> klog:Circular_log.t -> vlog:Circular_log.t -> unit -> t

val set_resolver : t -> (int -> Circular_log.t) -> unit
(** Wire the foreign-SSD log resolver (the JBOF maps dev id → swap log). *)

val set_charge : t -> (float -> unit) -> unit
(** Wire the CPU hook: called with A72-equivalent cycles; the I/O engine
    executes them on the SSD's pinned core. *)

val name : t -> string
val segtbl : t -> Segtbl.t
val klog : t -> Circular_log.t
val vlog : t -> Circular_log.t
val home_dev : t -> int

val objects : t -> int
(** Live (non-tombstone) items. *)

val stats : t -> op_kind -> op_stats

val index_bytes : t -> int
(** Modeled DRAM footprint of the segment table. *)

val index_bytes_per_object : t -> float
(** The Challenge-1 number; stays below ~0.5 B per object. *)

(** {1 Commands (§3.3)} *)

exception Corrupt of string
(** A read exhausted its torn-read retries on a checksum failure: the
    entry is rotted at rest, not torn in flight. Raised by {!get} (and
    counted) so the node above can read-repair from the next CRRS
    replica — never silently swallowed. *)

val get : t -> string -> bytes option
(** Two NVMe accesses. Lock-free: a concurrent compaction may relocate
    what the GET's snapshot points at; stale entries remain readable until
    the log wraps over them and the rare torn read is retried internally.
    Raises {!Corrupt} when retries exhaust on a CRC failure. *)

val put : ?target:Circular_log.t -> t -> string -> bytes -> unit
(** Three NVMe accesses, value append overlapped with the segment read.
    [target] redirects both appends to that log, a foreign SSD's swap
    log (§3.6).
    Blocks for compaction headroom when a log is near-full. Raises
    [Invalid_argument] on an empty value (the tombstone), one larger
    than 1 MiB, or a key longer than {!Codec.max_key_size} bytes. *)

val del : t -> string -> unit
(** Two NVMe accesses; writes a tombstoned segment copy. Raises
    [Invalid_argument] for a key longer than {!Codec.max_key_size}
    bytes. *)

(** {1 Compaction (§3.3.1)} *)

val compact_key_log : t -> int
(** One round over [compaction_window] bytes at the head: one bulk scan
    read, S parallel sub-compactions relocating live segments from that
    read's bytes (purging tombstones), head advance. Returns bytes reclaimed (0 when the round
    was blocked by lack of tail space). *)

val compact_value_log : t -> int
(** One round over the value log: bulk window scan, group live entries by
    owning segment, relocate values and rewrite their buckets under the
    segment lock, advance the head. *)

val merge_swapped_back : t -> unit
(** Rewrite every swapped-out segment (and its foreign values) back to the
    home logs (§3.6). *)


val run_compactor : ?period:float -> t -> unit
(** Spawn the background compactor: interleaves key-/value-log rounds when
    occupancy exceeds the trigger (or free space falls below the write
    path's headroom floor) and merges swapped segments home. *)

(** {1 Recovery and bulk access (§3.8)} *)

val recover : t -> unit
(** Rebuild the DRAM segment table by scanning the key log in append
    order (newest copy of each segment wins) and recount live objects.
    The scan stops at the first CRC-bad frame header — like the torn-tail
    rule, everything beyond it is unreachable and re-enters via COPY. *)

val fold_live : t -> init:'a -> f:('a -> string -> bytes -> 'a) -> 'a
(** Visit every live (key, value) pair — the substrate of COPY. Segments
    are visited 8 at a time, each locked for the duration of its
    visit, so copied pairs are immutable while in flight. *)

(** {1 Scrubbing (data integrity)} *)

type scrub_result =
  | Scrub_clean of int
      (** the segment and all its live values verified; payload = items checked *)
  | Scrub_repair of string list
      (** keys whose value entries are rotted — each repairable individually
          from a CRRS replica *)
  | Scrub_bad_segment
      (** the segment frame itself is rotted: its item list is gone, only an
          arc re-COPY can rebuild it *)

val scrub_segment : t -> int -> scrub_result
(** Verify one segment end-to-end under its lock: strict frame decode plus
    a CRC check of every live value entry. Charges device time normally so
    the engine can price scrub reads in tokens. *)

val nsegments : t -> int

type counters = {
  gets : int;
  puts : int;
  dels : int;
  compaction_runs : int;
  swapped : int;  (** PUTs executed against a foreign swap region *)
  merged : int;   (** segments merged back home *)
  corrupt : int;  (** CRC/decode failures surfaced to callers *)
  salvaged : int; (** write-path reads that dropped rotted buckets *)
}

val counters : t -> counters
