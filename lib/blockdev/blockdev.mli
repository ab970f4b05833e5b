(** Simulated block storage devices.

    A device really stores bytes (stores serialize real data and can be
    crash-recovered) and charges simulated time per command. Reads share a
    pool of [read_concurrency] internal units — IOPS emerges as
    concurrency / latency. Writes additionally serialise on a bandwidth
    pipe capping sequential/random write throughput, reproducing the
    read/write discrepancy LEED's token engine reacts to (paper §3.4). *)

type profile = {
  name : string;
  capacity_bytes : int;
  block_size : int;
  read_concurrency : int;  (** internal parallelism (≈ IOPS × latency) *)
  read_us : float;         (** base random-read service latency per block *)
  write_us : float;        (** program latency charged after the transfer *)
  seq_read_mbps : float;
  seq_write_mbps : float;  (** append workloads *)
  rand_write_mbps : float; (** in-place writes; small ones pay a full page *)
  jitter : float;          (** relative stddev of service time *)
}

val dct983 : profile
(** Samsung DCT983 960 GB NVMe — the paper's JBOF drive (~400 K 4 KB
    random-read IOPS, ~1 GB/s sequential write). *)

val sandisk_sd : profile
(** The Raspberry Pi's SD card behind its shared USB2 bus. *)

val instant : ?capacity_bytes:int -> unit -> profile
(** Zero-latency device for timing-independent unit tests. *)

val with_capacity : profile -> int -> profile

(** Sparse chunked byte store backing a device (exposed for tests). *)
module Storage : sig
  type t

  val create : unit -> t
  val write : t -> off:int -> bytes -> unit
  val read : t -> off:int -> len:int -> bytes
end

type stats = {
  mutable n_reads : int;
  mutable n_writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable bits_flipped : int;  (** injected at-rest bit-rot events *)
}

type t

val create : ?rng:Leed_sim.Rng.t -> ?max_queue:int -> ?track:Leed_trace.Trace.track -> profile -> t
(** [create profile] builds a device. [max_queue] bounds outstanding
    commands (queued + executing); exceeding it trips the
    {!Leed_sim.Invariant} sanitizer when that is enabled. The default is
    deliberately generous (2^20) — it exists to catch lost admission
    control above the device, not to model queue limits. [track] is the
    trace row the device's IO spans and queue-depth counters land on
    (default: the root track); the engine passes a per-SSD row. *)

val profile : t -> profile
val stats : t -> stats
val capacity : t -> int

val inflight : t -> int
(** Outstanding commands, queued or executing. *)

val queued : t -> int

val resident_bytes : t -> int
(** Bytes of simulated flash the device holds in memory: its written
    64 KiB chunks × 64 KiB. The first write into a chunk materialises all
    of it, zero-filled; reads never do, and a chunk stays resident for
    the device's life (across {!reboot} too). *)

val read : t -> off:int -> len:int -> bytes
(** Blocking random read; service = base latency + transfer time. The
    result is a fresh buffer the caller owns. *)

val read_view : t -> off:int -> len:int -> bytes * int
(** The same command as {!read}, same service time and counters, but
    zero-copy: the bytes are at [buf.[pos .. pos+len)] of the returned
    [(buf, pos)]. When the range lies inside one written 64 KiB storage
    chunk, [buf] {e is} that chunk; otherwise it is a fresh copy and
    [pos = 0]. The caller must treat [buf] as read-only and consume it
    before it next blocks: any later write or bit flip to the device may
    change it in place. *)

val write_seq : t -> off:int -> bytes -> unit
(** Sequential append write: priced at the drive's sequential bandwidth. *)

val write_rand : t -> off:int -> bytes -> unit
(** Random in-place write: priced at the (much lower) random-write
    bandwidth, with a full-flash-page floor for small writes. *)

val reboot : t -> t
(** Crash simulation: persistent contents survive, volatile queueing and
    counters reset. Injected fault state ({!set_service_factor},
    {!fail}) is physical and survives the reboot. *)

val utilisation : t -> float
(** Time-averaged fraction of read units in use since the run started. *)

val busy_seconds : t -> float
(** Equivalent fully-busy device-seconds since the run started (busy
    integral over unit capacity). The observed-activity signal the
    energy model derives watts from: degraded drives accumulate it
    faster at equal load. *)

(** {2 Fault-injection hooks}

    Driven by the fault subsystem ([Leed_fault]): a degraded drive
    multiplies every service time (brown-out, thermal throttle, worn
    flash); a failed drive rejects all commands until repaired. *)

exception Failed of string
(** Raised by {!read}/{!write_seq}/{!write_rand} against a failed device. *)

val set_service_factor : t -> float -> unit
(** Multiply all subsequent service times by [f] (> 0); [1.0] restores
    nominal speed. *)

val fail : t -> unit
(** Mark the device dead: every subsequent command raises {!Failed}. *)

val repair : t -> unit
(** Clear the failed state (device replaced / power restored). *)

val is_failed : t -> bool

(** {3 At-rest bit-rot}

    These mutate the backing storage directly, bypassing the command path:
    rot happens to idle flash, so no simulated time is charged and the
    failed state is ignored. Counted in [stats.bits_flipped]. *)

val flip_bit : t -> off:int -> bit:int -> unit
(** Flip bit [bit land 7] of the byte at [off]. *)

val corrupt_range : t -> rng:Leed_sim.Rng.t -> off:int -> len:int -> flips:int -> unit
(** Flip [flips] seeded-random bits within [off, off+len). *)

val corrupt_resident : t -> rng:Leed_sim.Rng.t -> flips:int -> int
(** Flip [flips] seeded-random bits across the device's ever-written
    chunks (walked in sorted order, so same seed ⇒ same rot). Returns the
    number flipped — 0 if the device holds no data yet. *)
