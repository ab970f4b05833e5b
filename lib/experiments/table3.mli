(** Table 3: single-node comparison of FAWN-JBOF, KVell-JBOF, and LEED,
    all running on the SmartNIC JBOF — max usable capacity, random
    read/write latency and throughput for 256 B and 1 KB objects. *)

val fawn_capacity : object_size:int -> float
(** Max usable fraction of flash at full hardware scale under FAWN's
    {!Leed_baselines.Fawn_store.index_bytes_per_object} DRAM index
    model. *)

val kvell_capacity : object_size:int -> float
(** Same under KVell's model:
    {!Leed_baselines.Kvell_store.index_bytes_per_object} per object after
    the page cache's share of DRAM. *)

val leed_capacity : object_size:int -> float
(** Same under LEED's segment-table model
    ({!Leed_core.Segtbl.entry_bytes} per segment). *)

val run : unit -> unit
