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

val is_tombstone : item -> bool

(** {1 Buckets} (the store reads and writes whole segments below) *)

type bucket = {
  bindex : int;     (** 4-byte key-hash check field *)
  chain_len : int;
  chain_pos : int;
  seg_id : int;     (** owning segment (recovery) *)
  log_head : int;   (** key-log head at write time (recovery hint) *)
  log_tail : int;
  items : item list;
}

val bucket_fits : bucket -> bool
val encode_bucket : bucket -> bytes
(** Stamps the bucket CRC-32 into header bytes [34,38). *)

val decode_bucket : ?off:int -> bytes -> bucket
(** Raises {!Corrupt} on magic or CRC mismatch. *)

(** {1 Segments} *)

val segment_bytes : chain_len:int -> int

val encode_segment : seg:int -> log_head:int -> log_tail:int -> item list -> bytes * int
(** The segment's bytes and chain length. Buckets take the items in
    order, each until the next would overflow it; every bucket carries
    [seg], the recovery hints and the first item's bucket index, and an
    empty list is one empty bucket. Raises [Invalid_argument] past
    {!max_chain_len} buckets. *)

type segment = {
  seg_items : item list;  (** every item of the chain, in order *)
  dropped : int;          (** buckets skipped by a salvage decode *)
  in_order : bool;        (** chain headers agree: seg_id, chain_len, chain_pos *)
}

val decode_segment : ?salvage:bool -> off:int -> len:int -> bytes -> segment
(** Decodes the [len / bucket_size] buckets at [buf.[off .. off+len)];
    [buf] may extend past the range (a device view). Raises {!Corrupt} at
    the first bucket failing its magic or CRC, or with [~salvage:true]
    skips it and counts it in [dropped]. *)

val segment_header : off:int -> bytes -> int * int
(** (seg_id, chain_len) of the segment at [buf.[off]], from its first
    bucket's [header_bytes Key_log] bytes: magic and CRC are checked, no
    item is decoded. Raises {!Corrupt}. *)

(** {1 Value-log entries} *)

type value_entry = { ve_seg : int; ve_key : string; ve_value : bytes }

val value_entry_size : key:string -> vlen:int -> int
(** Bytes of the value-log entry holding a [vlen]-byte value under [key]. *)

val encode_value_entry : value_entry -> bytes

val decode_value_entry : off:int -> len:int -> bytes -> value_entry
(** Decodes the entry read as [buf.[off .. off+len)]; [buf] may extend
    past the range (a device view), and the key and value are copied
    out. Raises {!Corrupt} on magic or CRC mismatch, and on truncation:
    an entry whose header claims more than [len] bytes, whatever [buf]
    holds beyond them. The CRC covers header, key, and payload. Raises
    [Invalid_argument] if the range lies outside [buf]. *)

(** {1 Log windows}

    A compactor reads a window at its log's head in one bulk read and
    walks the frames in it: segments in the key log, value entries in the
    value log. *)

type log = Key_log | Value_log

val header_bytes : log -> int
(** Bytes a reader needs at a frame's start to learn its owner and
    length: a whole bucket for a segment (its CRC covers the bucket), the
    fixed header for a value entry. *)

type frame = {
  loff : int; (** log offset of the frame *)
  len : int;  (** bytes: chain_len buckets, or header + key + value *)
  seg : int;  (** owning segment *)
}

val walk_window :
  log -> base:int -> bytes -> on_rot:(at:int -> resume:int option -> bool) -> frame list * int
(** The frames of the window [buf] read at log offset [base], in log
    order, and the log offset the walk reached. It stops at the first
    frame whose header does not fit or that declares a length of 0 or
    past [buf], and at a rotted frame: one whose header fails to decode,
    or a value entry failing its CRC unless the entry its length points
    to verifies. [on_rot ~at ~resume] is told of each rotted frame. In
    the key log, [resume] is the next bucket that verifies as a chain's
    first: returning [true] skips [[at, resume)] and walks on. *)
