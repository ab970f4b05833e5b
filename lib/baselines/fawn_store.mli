(** FAWN-DS [SOSP'09] — the log-structured datastore of the embedded
    baseline, over the simulated block devices.

    One append-only circular data log holds (key, value) entries; a DRAM
    hash index maps each key to its newest offset at the paper's budget of
    6 bytes per object — which caps FAWN-JBOF at a sliver of the flash
    when ported to a SmartNIC JBOF (Table 3). GET = one SSD access; PUT
    goes through a write-behind buffer (or write-through when
    [flush_threshold] ≤ 0, the SPDK-port behaviour); DEL appends a
    tombstone; compaction reclaims dead entries. *)

exception Index_full
(** The DRAM budget is exhausted: FAWN cannot index more objects. *)

exception Corrupt of string

type config = {
  dram_budget : int;
  flush_threshold : int;
      (** write-behind buffer size; ≤ 0 selects synchronous write-through *)
  charge : float -> unit; (** CPU-cycle hook *)
}

val default_config : config

type t

val create : ?config:config -> log:Leed_core.Circular_log.t -> unit -> t

val index_bytes_per_object : int
(** DRAM the index spends per object: the paper's 6 B. *)

val objects : t -> int
val max_objects : t -> int
val log : t -> Leed_core.Circular_log.t

val addressable_fraction : t -> object_size:int -> float
(** Fraction of the flash this store can actually index (Table 3 row 1). *)

val put : t -> string -> bytes -> unit
(** Raises {!Index_full} for a new key beyond the DRAM budget. *)

val del : t -> string -> unit
val get : t -> string -> bytes option

val flush : t -> unit
(** Force the write-behind buffer to flash as one sequential write. *)

val run_flusher : ?period:float -> t -> unit
val compact : t -> int
val run_compactor : ?period:float -> t -> unit

type counters = {
  c_reads : int;
  c_writes : int;
  c_compactions : int;
  c_corrupt : int;  (** rotted entries the compactor stalled on *)
}

val counters : t -> counters
