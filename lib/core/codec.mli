(** Binary layout of the LEED data store (paper §3.2.2–§3.2.3).

    Key-log entries are {e segments}: contiguous arrays of fixed-size
    buckets ("the data structure of a segment is changed to an array of
    buckets when writing"). A bucket carries a 4-byte index for key-hash
    matching, chain length/position, head/tail recovery hints, and a
    sequence of key items; a key item is (key, key length, value length,
    value offset) extended with the SSD id holding the value — the §3.6
    swap metadata. Value-log entries carry framing (segment id + key) so
    the value compactor can decide liveness from the owning bucket.

    Every on-flash entry (bucket and value entry) carries a CRC-32 over
    its payload, verified on every decode: at-rest bit-rot surfaces as
    {!Corrupt} instead of silently parsed garbage. *)

val bucket_size : int
(** 512 B — "whose size is limited to the SSD block size". *)

val bucket_header_size : int
val value_header_size : int

val max_key_size : int
(** 255: the longest key an item or value-entry header can record (its
    length is one byte). Longer keys are rejected by [Store.put]/[del]
    and by the client, never written truncated. *)

val check_key : fn:string -> string -> unit
(** Raises [Invalid_argument "<fn>: key longer than 255 bytes"] for a
    key longer than {!max_key_size}. *)

val max_chain_len : int
(** 255: the most buckets one segment can chain (chain length and
    position are one byte each). *)

exception Corrupt of string

val crc32 : ?crc:int -> bytes -> pos:int -> len:int -> int
(** Pure-OCaml CRC-32 (IEEE 802.3, reflected). [?crc] continues a previous
    checksum so disjoint ranges can be folded into one digest. *)

val hash_key : string -> int
(** FNV-1a 64 with a SplitMix64 avalanche finalizer (the finalizer is
    load-bearing: plain FNV clusters near-identical keys on the ring). *)

val segment_of_key : nsegments:int -> string -> int
val bucket_index_of_key : string -> int

(** {1 Key items} *)

type item = {
  key : string;
  vlen : int;  (** 0 marks a deletion (§3.3) *)
  voff : int;  (** logical offset into the value log *)
  vdev : int;  (** SSD id of the log holding the value; -1 = absent *)
}

val item_size : item -> int
val is_tombstone : item -> bool

(** {1 Buckets and segments} *)

type bucket = {
  bindex : int;     (** 4-byte key-hash check field *)
  chain_len : int;
  chain_pos : int;
  seg_id : int;     (** owning segment (recovery) *)
  log_head : int;   (** key-log head at write time (recovery hint) *)
  log_tail : int;
  items : item list;
}

val items_capacity : key_size:int -> int
val bucket_fits : bucket -> bool
val encode_bucket : bucket -> bytes
(** Stamps the bucket CRC-32 into header bytes [34,38). *)

val decode_bucket : ?off:int -> bytes -> bucket
(** Raises {!Corrupt} on magic or CRC mismatch. *)

val encode_segment : bucket list -> bytes
(** Renumbers chain_len/chain_pos over the list. Raises
    [Invalid_argument] for more than {!max_chain_len} buckets. *)

val decode_segment : off:int -> len:int -> bytes -> bucket list
(** Decodes the [len / bucket_size] buckets at [buf.[off .. off+len)];
    [buf] may extend past the range (a device view). Raises {!Corrupt}
    like {!decode_bucket}. *)

val decode_segment_salvage : off:int -> len:int -> bytes -> bucket list * int
(** Like {!decode_segment} but skips CRC-bad buckets at 512-B granularity
    instead of raising; returns (verified buckets, buckets dropped). For
    write paths that must make progress over a rotted segment so a later
    repair write can rebuild it. *)

val segment_bytes : chain_len:int -> int

(** {1 Value-log entries} *)

type value_entry = { ve_seg : int; ve_key : string; ve_value : bytes }

val encode_value_entry : value_entry -> bytes

val decode_value_header : off:int -> bytes -> int * int * int
(** (seg_id, klen, vlen) from the {!value_header_size} bytes at [off], so
    a scanner can size the full read. *)

val decode_value_entry : off:int -> len:int -> bytes -> value_entry
(** Decodes the entry read as [buf.[off .. off+len)]; [buf] may extend
    past the range (a device view), and the key and value are copied
    out. Raises {!Corrupt} on magic or CRC mismatch, and on truncation:
    an entry whose header claims more than [len] bytes, whatever [buf]
    holds beyond them. The CRC covers header, key, and payload. Raises
    [Invalid_argument] if the range lies outside [buf]. *)
