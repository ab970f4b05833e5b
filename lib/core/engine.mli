(** Intra-JBOF I/O execution engine (paper §3.4) and write-imbalance data
    swapping (§3.6).

    The engine owns one SmartNIC JBOF: its SSDs, the static core↔SSD
    mapping, and per partition an FCFS waiting queue plus an active set
    bounded by tokens — the SSD's serving capability, adapted from the
    measured per-IO service latency. A command is admitted when its token
    cost fits, runs on the SSD's pinned core, and releases its tokens on
    completion.

    Data swapping redirects an overloaded SSD's PUTs to the least-loaded
    co-located SSD's swap region; the engine resets a swap region once no
    segment table references it, nothing toward it is in flight, and no
    reader pins it. *)

(** A store command, indexed by what it answers. *)
type _ cmd =
  | Get : string -> bytes option cmd  (** the value, [None] when absent *)
  | Put : string * bytes -> unit cmd
  | Del : string -> unit cmd
  | Scrub : int -> Store.scrub_result cmd
      (** [Scrub seg] verifies one segment's checksums end-to-end
          ({!Store.scrub_segment}); scheduled through the same token
          engine so maintenance reads are priced like any other I/O. *)

(** Why a command completed without an answer. *)
type failure =
  | Failed
      (** the command hit a dead device (injected SSD brown-out): the
          store's state for that key is unchanged *)
  | Corrupt
      (** the command hit rot at rest (checksum failure after torn-read
          retries): the node read-repairs from another replica *)
  | Shed
      (** the command sat queued past its deadline and was dropped before
          touching flash (deadline-aware load shedding) *)
  | Overloaded
      (** the partition's waiting queue was full: the command was refused
          at submission and never queued *)

val token_cost : _ cmd -> int
(** A command's cost = its NVMe access count (§3.3): GET 2, PUT 3, DEL 2,
    SCRUB 4 (bulk maintenance read). *)

type config = {
  partitions_per_ssd : int;
  swap_enabled : bool;
  swap_threshold : int;   (** queued-token gap that triggers redirection *)
  token_min : int;
  token_max : int;
  waiting_cap : int;      (** shallow waiting-queue bound (§3.4) *)
  store_config : Store.config;
}

val default_config : config
(** The paper-faithful defaults: 2 partitions per SSD, swapping on,
    tokens adapted within [8, 96], waiting queues capped at 256. *)

type partition
(** One intra-SSD partition: a store plus its FCFS waiting queue. *)

type ssd_sched
(** One SSD's scheduler: token pool, active set, foreign (swapped-in)
    queue, and the round-robin cursor over its home partitions. *)

type t
(** One JBOF's engine: every SSD scheduler plus the swap machinery. *)

val create : ?config:config -> ?rng:Leed_sim.Rng.t -> ?track:Leed_trace.Trace.track -> Leed_platform.Platform.t -> t
(** Build the engine for one JBOF of the given platform (devices, token
    schedulers, partitioned stores). [track] is the parent trace row the
    per-SSD rows ([ssd0], [ssd0.dev], ...) are registered under; a fresh
    top-level ["jbof"] row when omitted. *)

val start : t -> unit
(** Admit the commands submitted before the start, then spawn the
    stores' compactors and the swap-region reclaimer; they run until the
    simulation ends. A second call does nothing. *)

val partitions : t -> partition array
(** All partitions of the JBOF, indexed by partition id. *)

val partition : t -> int -> partition
(** The partition with the given id. *)

val npartitions : t -> int
(** Number of partitions ([ssd_count * partitions_per_ssd]). *)

val ssds : t -> ssd_sched array
(** The per-SSD schedulers, indexed by device. *)

val devices : t -> Leed_blockdev.Blockdev.t array
(** The JBOF's block devices, one per SSD — the uniform NVMe-access
    counter source for the {!Backend} metrics. *)

val store : partition -> Store.t
(** The partition's log-structured store. *)

val available_tokens : partition -> int
(** The §3.5 flow-control signal: the SSD's spare token capacity divided
    across its partitions, piggybacked to clients. *)

val waiting_depth : partition -> int
(** Commands parked in the partition's FCFS waiting queue. *)

val submit : ?deadline:float -> t -> pid:int -> 'a cmd -> ('a, failure) result
(** Enqueue a command on partition [pid] and block until it completes
    with the command's answer or the reason it has none. The command runs
    on the caller's fiber once its tokens are granted (at once when they
    fit and the engine has started); if it raises, its tokens are
    released and the exception reaches the caller. PUTs on an
    overloaded SSD may be swapped to another SSD (§3.6). A full waiting
    queue answers [Error Overloaded] at once, without blocking. [deadline]
    (absolute virtual time; 0. = none, the default) arms deadline-aware
    shedding: if the command is still queued when the deadline passes it
    completes as [Error Shed] without consuming tokens or NVMe accesses,
    so a submission with no deadline never sheds. *)

type ssd_stats = {
  executed : int;  (** commands completed on this SSD *)
  swapped_out : int;  (** PUTs this (home) SSD redirected away (§3.6) *)
  swapped_in : int;  (** foreign PUTs this SSD accepted *)
  capacity : int;  (** current adaptive token capacity *)
  ewma_access_us : float;  (** smoothed per-token service latency *)
  deferred : int;  (** commands that had to wait for tokens before launch *)
  denied : int;  (** submissions answered [Error Overloaded] *)
  shed : int;  (** queued commands dropped past their deadline ([Error Shed]) *)
}

val ssd_stats : ssd_sched -> ssd_stats
(** Cumulative per-SSD scheduler statistics. *)

(** {1 Live gauges}

    Cheap point-in-time reads for the observability sampler
    ({!Obs}); all O(1) except {!swapped_segments}. *)

val active_tokens : ssd_sched -> int
(** Tokens currently held by executing commands. *)

val token_capacity : ssd_sched -> int
(** Current adaptive token capacity of the SSD. *)

val ssd_device : ssd_sched -> Leed_blockdev.Blockdev.t
(** The scheduler's block device. *)

val ssd_track : ssd_sched -> Leed_trace.Trace.track
(** The scheduler's trace row (counters for this SSD land here). *)

val ssd_partitions : ssd_sched -> partition array
(** The SSD's home partitions (a subset of {!partitions}). *)

val swapped_segments : partition -> int
(** Segments of this partition currently living in a foreign SSD's swap
    region — the per-vnode swap-state gauge. *)
