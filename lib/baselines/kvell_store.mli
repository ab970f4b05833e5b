(** KVell [SOSP'19] — the server-JBOF baseline: a shared-nothing,
    unordered-on-disk persistent KV store with batched asynchronous I/O.

    Each worker owns a slab slice of the flash and keeps a hash index
    (key → slot), a free list, and a page cache in DRAM (~64 B per object
    — the Table 3 capacity cap). Commands are enqueued to their worker;
    the worker looks up each batch entry sequentially on its pinned core,
    paying the flat [index_cycles] charge per op, and issues the device
    I/O asynchronously behind a window of 64. Every command costs at most
    one SSD access; the CPU-heavy index is why KVell collapses on the
    wimpy SmartNIC while topping throughput on a Xeon. *)

exception Dram_full
(** The DRAM index budget is exhausted (Table 3 row 1). *)

exception Slab_full
(** The key's worker has no free slot left in its slab slice; fails the
    single put, never the worker loop. *)

exception Corrupt of string
(** A slot failed validation after an at-rest bit flip; fails the single
    op ({!get} raises), never the worker loop. *)

type config = {
  nworkers : int;
  slot_size : int;              (** slab item class *)
  dram_budget : int;
      (** a quarter is page cache, the rest indexes objects at 64 B each *)
  index_cycles : float;
      (** flat index charge per op (lookup, insert or delete), A72-equivalent *)
  charge : int -> float -> unit; (** worker id -> cycles -> () *)
}

val default_config : config

val index_bytes_per_object : int
(** DRAM per indexed object (index entry, free list and cache metadata):
    64 B. *)

val page_cache_frac : float
(** Share of [dram_budget] given to the page cache: 0.25. *)

type t

val create : ?config:config -> devs:Leed_blockdev.Blockdev.t array -> unit -> t
(** Workers split the devices' space evenly; worker i uses device
    [i mod ndev]. *)

val start : t -> unit
(** Spawn the worker loops (implicit on first command). *)

val objects : t -> int
val max_objects : t -> int
val addressable_fraction : t -> object_size:int -> flash_bytes:int -> float

val put : t -> string -> bytes -> unit
(** In-place update, or slot allocation for a new key. Raises
    [Invalid_argument] (before the op reaches a worker) for a key longer
    than {!Leed_core.Codec.max_key_size} bytes or when key, value and the
    8 B slot header exceed [slot_size], {!Dram_full} beyond the
    index budget and {!Slab_full} when the worker's slab has no free
    slot. *)

val get : t -> string -> bytes option
val del : t -> string -> unit

val corrupt_reads : t -> int
(** Slots that failed validation on read. *)

val avg_batch : t -> float
(** Mean worker batch size over the run. *)

type cache_stats = { hits : int; misses : int }

val cache_stats : t -> cache_stats
