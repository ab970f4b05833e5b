(** KVell [SOSP'19] — the server-JBOF baseline: a shared-nothing,
    unordered-on-disk persistent KV store with batched asynchronous I/O.

    Each worker owns a slab slice of the flash and keeps a B-tree index,
    a free list, and a page cache in DRAM (~64 B per object — the Table 3
    capacity cap). Commands are enqueued to their worker; the worker walks
    the B-tree for each batch entry sequentially on its pinned core and
    issues the device I/O asynchronously behind a window of 64. Every
    command costs at most one SSD access; the CPU-heavy index is why KVell
    collapses on the wimpy SmartNIC while topping throughput on a Xeon. *)

exception Dram_full
(** The DRAM index budget is exhausted (Table 3 row 1). *)

exception Corrupt of string
(** A slot failed validation after an at-rest bit flip; fails the single
    op ({!get} raises), never the worker loop. *)

type config = {
  nworkers : int;
  slot_size : int;              (** slab item class *)
  dram_budget : int;
      (** a quarter is page cache, the rest indexes objects at 64 B each *)
  index_cycles : float;         (** per-op B-tree walk, A72-equivalent *)
  charge : int -> float -> unit; (** worker id -> cycles -> () *)
}

val default_config : config

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
(** In-place update, or slot allocation for a new key; raises
    {!Dram_full} beyond the index budget. *)

val get : t -> string -> bytes option
val del : t -> string -> unit

val corrupt_reads : t -> int
(** Slots that failed validation on read. *)

val avg_batch : t -> float
(** Mean worker batch size over the run. *)

type cache_stats = { hits : int; misses : int }

val cache_stats : t -> cache_stats
