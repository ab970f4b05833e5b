(* Binary layout of the LEED data store (§3.2.2, §3.2.3).

   Key log entries are *segments*: arrays of fixed-size buckets. A bucket
   holds a 4-byte bucket index (key-hash check), chain length/position,
   head/tail recovery hints, and a sequence of key items. A key item is
   (key, key length, value length, value offset) extended — for the data
   swapping mechanism of §3.6 — with the SSD identifier holding the value.

   Value log entries carry enough framing (segment id + key) for the value
   compactor to decide liveness by consulting the owning bucket. Every
   byte-level decision lives here; the store sees item lists and frames.

   Every on-flash entry — each 512-B bucket and each value entry — carries
   a CRC-32 over its payload, verified on every decode, so at-rest bit-rot
   surfaces as [Corrupt] instead of silently parsed garbage. *)

let bucket_size = 512
let bucket_header_size = 40
let item_fixed_size = 14 (* klen(1) vlen(4) voff(8) vdev(1) *)
let bucket_magic = 0xB5
let value_magic = 0x5E
let value_header_size = 20

(* A key's length and a bucket's chain length and position are each one
   header byte. *)
let max_key_size = 255
let max_chain_len = 255

let check_key ~fn key =
  if String.length key > max_key_size then
    invalid_arg (Printf.sprintf "%s: key longer than %d bytes" fn max_key_size)

(* FNV-1a 64-bit over the key with a SplitMix64 avalanche finalizer:
   plain FNV disperses the short, near-identical keys of a key-value
   workload poorly (consecutive ids land on near-consecutive ring points),
   so the final mix is load-bearing for consistent hashing balance. The
   loop keeps [h] in a local ref so the compiler holds it unboxed: this
   runs several times per request. *)
let hash_key (k : string) : int =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length k - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get k i)))) 0x100000001b3L
  done;
  let z = !h in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  (* keep 62 bits so it is a non-negative OCaml int *)
  Int64.to_int (Int64.shift_right_logical z 2)

let segment_of_key ~nsegments key = hash_key key mod nsegments

let bucket_index_of_key key = hash_key key land 0xFFFFFFFF

(* --- key items --- *)

type item = {
  key : string;
  vlen : int;  (* 0 = deletion marker (§3.3) *)
  voff : int;  (* logical offset into the value log *)
  vdev : int;  (* SSD id of the log holding the value; -1 = value inline/absent *)
}

let item_size it = item_fixed_size + String.length it.key

let is_tombstone it = it.vlen = 0

(* --- buckets --- *)

type bucket = {
  bindex : int;           (* 4-byte key-hash check field *)
  chain_len : int;        (* number of buckets in this segment *)
  chain_pos : int;        (* position of this bucket within the chain *)
  seg_id : int;           (* owning segment (recovery) *)
  log_head : int;         (* key log head at write time (recovery hint) *)
  log_tail : int;
  items : item list;
}

(* Item bytes one bucket holds after its header. *)
let bucket_payload = bucket_size - bucket_header_size

let items_bytes items = List.fold_left (fun acc it -> acc + item_size it) 0 items

let bucket_fits b = items_bytes b.items <= bucket_payload

let set_u8 b off v = Bytes.set_uint8 b off (v land 0xFF)
let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xFFFF)
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int (v land 0xFFFFFFFF))
let set_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let get_u8 = Bytes.get_uint8
let get_u16 = Bytes.get_uint16_le
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off)

(* --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) ---

   Pure-OCaml and table-driven so checksums are deterministic across
   platforms and runs — never derived from [Hashtbl.hash], whose value is
   implementation-defined and unfit for an on-flash format.

   Slicing-by-8: table k (entries [k*256, k*256+256)) maps a byte to its
   CRC contribution when followed by k zero bytes, so each 8-byte word
   takes 8 independent lookups instead of 8 dependent byte steps. Table 0
   is the classic bytewise table and handles the tail; the polynomial and
   every checksum value are those of the bytewise loop. *)

let crc_tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c)
     in
     let rec slice k n =
       if k = 0 then t0.(n)
       else
         let prev = slice (k - 1) n in
         (prev lsr 8) lxor t0.(prev land 0xFF)
     in
     Array.init (8 * 256) (fun i -> slice (i / 256) (i mod 256)))

let crc32 ?(crc = 0) buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Codec.crc32: range out of bounds";
  let t = Lazy.force crc_tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos and stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = get_u32 buf !i lxor !c and hi = get_u32 buf (!i + 4) in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xFF))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xFF))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get buf j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* The bucket CRC lives in the header at bytes [34,38) (after the log_tail
   hint; bytes [38,40) stay zero padding) and covers the whole 512-B bucket
   minus its own field, so both header and items are protected. *)
let bucket_crc_off = 34

let bucket_crc ?(off = 0) buf =
  let c = crc32 buf ~pos:off ~len:bucket_crc_off in
  crc32 ~crc:c buf ~pos:(off + bucket_crc_off + 4) ~len:(bucket_size - bucket_crc_off - 4)

(* Writes [b] as one bucket at [out.[off .. off+bucket_size)]. The range
   must be zeroed: unused item space and padding are written by not
   writing. *)
let write_bucket out ~off b =
  if not (bucket_fits b) then
    invalid_arg
      (Printf.sprintf "Codec.encode_bucket: %d bytes exceed bucket size %d"
         (bucket_header_size + items_bytes b.items)
         bucket_size);
  set_u8 out off bucket_magic;
  set_u8 out (off + 1) b.chain_len;
  set_u8 out (off + 2) b.chain_pos;
  set_u16 out (off + 4) (List.length b.items);
  set_u32 out (off + 6) b.bindex;
  set_u64 out (off + 10) b.seg_id;
  set_u64 out (off + 18) b.log_head;
  set_u64 out (off + 26) b.log_tail;
  let rec write_items pos = function
    | [] -> ()
    | it :: rest ->
        let klen = String.length it.key in
        set_u8 out pos klen;
        set_u32 out (pos + 1) it.vlen;
        set_u64 out (pos + 5) it.voff;
        set_u8 out (pos + 13) (if it.vdev < 0 then 0xFF else it.vdev);
        Bytes.blit_string it.key 0 out (pos + item_fixed_size) klen;
        write_items (pos + item_fixed_size + klen) rest
  in
  write_items (off + bucket_header_size) b.items;
  set_u32 out (off + bucket_crc_off) (bucket_crc ~off out)

let encode_bucket b =
  let out = Bytes.make bucket_size '\000' in
  write_bucket out ~off:0 b;
  out

exception Corrupt of string

let check_bucket ~off buf =
  if Bytes.length buf < off + bucket_size then raise (Corrupt "truncated bucket");
  if get_u8 buf off <> bucket_magic then raise (Corrupt "bucket magic mismatch");
  if get_u32 buf (off + bucket_crc_off) <> bucket_crc ~off buf then
    raise (Corrupt "bucket crc mismatch")

(* Prepends the items of the verified bucket at [off] to [acc], last item
   first. *)
let rev_items_onto buf ~off acc =
  let pos = ref (off + bucket_header_size) and acc = ref acc in
  for _ = 1 to get_u16 buf (off + 4) do
    let klen = get_u8 buf !pos and vdev = get_u8 buf (!pos + 13) in
    let key = Bytes.sub_string buf (!pos + item_fixed_size) klen in
    let vdev = if vdev = 0xFF then -1 else vdev in
    acc := { key; vlen = get_u32 buf (!pos + 1); voff = get_u64 buf (!pos + 5); vdev } :: !acc;
    pos := !pos + item_fixed_size + klen
  done;
  !acc

let decode_bucket ?(off = 0) buf =
  check_bucket ~off buf;
  { bindex = get_u32 buf (off + 6); chain_len = get_u8 buf (off + 1); chain_pos = get_u8 buf (off + 2);
    seg_id = get_u64 buf (off + 10); log_head = get_u64 buf (off + 18); log_tail = get_u64 buf (off + 26);
    items = List.rev (rev_items_onto buf ~off []) }

(* --- segments: contiguous arrays of buckets (§3.2.2: "the data structure
   of a segment is changed to an array of buckets when writing") --- *)

let segment_bytes ~chain_len = chain_len * bucket_size

(* Buckets take the items in order, each until the next would overflow
   its payload; an empty list is one empty bucket. Every bucket carries
   the first item's bucket index and the same recovery hints. *)
let encode_segment ~seg ~log_head ~log_tail items =
  let rec split groups cur bytes = function
    | [] -> List.rev (List.rev cur :: groups)
    | it :: rest ->
        let size = item_size it in
        if cur <> [] && bytes + size > bucket_payload then split (List.rev cur :: groups) [ it ] size rest
        else split groups (it :: cur) (bytes + size) rest
  in
  let groups = split [] [] 0 items in
  let n = List.length groups in
  if n > max_chain_len then
    invalid_arg (Printf.sprintf "Codec.encode_segment: %d buckets exceed %d" n max_chain_len);
  let bindex = match items with [] -> 0 | it :: _ -> bucket_index_of_key it.key in
  let out = Bytes.make (segment_bytes ~chain_len:n) '\000' in
  List.iteri
    (fun i items ->
      write_bucket out ~off:(i * bucket_size)
        { bindex; chain_len = n; chain_pos = i; seg_id = seg; log_head; log_tail; items })
    groups;
  (out, n)

type segment = { seg_items : item list; dropped : int; in_order : bool }

(* A segment occupies [buf.[off .. off+len)]; [len] is a whole number of
   buckets. Every append is a whole number of buckets, so salvage can drop
   a rotted bucket without losing alignment. *)
let decode_segment ?(salvage = false) ~off ~len buf =
  let n = len / bucket_size in
  let rev = ref [] and dropped = ref 0 and in_order = ref true in
  for i = 0 to n - 1 do
    let b = off + (i * bucket_size) in
    match check_bucket ~off:b buf with
    | () ->
        in_order :=
          !in_order && get_u8 buf (b + 2) = i && get_u8 buf (b + 1) = n
          && get_u64 buf (b + 10) = get_u64 buf (off + 10);
        rev := rev_items_onto buf ~off:b !rev
    | exception Corrupt _ when salvage -> incr dropped
  done;
  { seg_items = List.rev !rev; dropped = !dropped; in_order = !in_order }

let segment_header ~off buf =
  check_bucket ~off buf;
  (get_u64 buf (off + 10), get_u8 buf (off + 1))

(* --- value log entries --- *)

type value_entry = { ve_seg : int; ve_key : string; ve_value : bytes }

let value_entry_size ~key ~vlen = value_header_size + String.length key + vlen

(* The value-entry CRC occupies the previously reserved header bytes
   [14,18) (bytes [18,20) stay zero) and covers the whole entry minus its
   own field: header, key, and payload. *)
let value_crc_off = 14

let value_crc ~off ~total buf =
  let c = crc32 buf ~pos:off ~len:value_crc_off in
  crc32 ~crc:c buf ~pos:(off + value_crc_off + 4) ~len:(total - value_crc_off - 4)

let encode_value_entry ve =
  let klen = String.length ve.ve_key and vlen = Bytes.length ve.ve_value in
  let out = Bytes.create (value_header_size + klen + vlen) in
  set_u8 out 0 value_magic;
  set_u8 out 1 klen;
  set_u32 out 2 vlen;
  set_u64 out 6 ve.ve_seg;
  set_u32 out 14 0;
  set_u16 out 18 0;
  Bytes.blit_string ve.ve_key 0 out value_header_size klen;
  Bytes.blit ve.ve_value 0 out (value_header_size + klen) vlen;
  set_u32 out value_crc_off (value_crc ~off:0 ~total:(Bytes.length out) out);
  out

(* (seg_id, klen, entry length) from the [value_header_size] bytes at
   [off]. *)
let value_header ~off buf =
  if get_u8 buf off <> value_magic then raise (Corrupt "value magic mismatch");
  let klen = get_u8 buf (off + 1) in
  (get_u64 buf (off + 6), klen, value_header_size + klen + get_u32 buf (off + 2))

(* The entry was read as [buf.[off .. off+len)]. The truncation check is
   against [len], not against what [buf] happens to hold past it: [buf]
   may be a whole device chunk, and a rotted [vlen] must not reach into
   its neighbours. *)
let decode_value_entry ~off ~len buf =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Codec.decode_value_entry: range out of bounds";
  let seg_id, klen, total = value_header ~off buf in
  if len < total then raise (Corrupt "truncated value entry");
  if get_u32 buf (off + value_crc_off) <> value_crc ~off ~total buf then
    raise (Corrupt "value crc mismatch");
  let key = Bytes.sub_string buf (off + value_header_size) klen in
  let value = Bytes.sub buf (off + value_header_size + klen) (total - value_header_size - klen) in
  { ve_seg = seg_id; ve_key = key; ve_value = value }

(* --- log windows: the frames of one bulk read at a log's head --- *)

type log = Key_log | Value_log

type frame = { loff : int; len : int; seg : int }

(* A segment's header is only trusted with its bucket's CRC, which covers
   the whole bucket. *)
let header_bytes = function Key_log -> bucket_size | Value_log -> value_header_size

type step = Frame of frame | Stop | Rot

(* The frame at [pos] as its header declares it (owner and length). *)
let frame_at log ~base buf ~pos =
  let size = Bytes.length buf in
  if pos + header_bytes log > size then Stop
  else
    match
      match log with
      | Key_log -> let seg, chain_len = segment_header ~off:pos buf in (seg, segment_bytes ~chain_len)
      | Value_log -> let seg, _, len = value_header ~off:pos buf in (seg, len)
    with
    | exception Corrupt _ -> Rot
    | seg, len -> if len = 0 || pos + len > size then Stop else Frame { loff = base + pos; len; seg }

let value_verifies buf ~pos ~len =
  get_u32 buf (pos + value_crc_off) = value_crc ~off:pos ~total:len buf

(* A value entry's CRC covers its length, so an entry that fails it is
   only trusted as far as the entry its length points to verifies: a
   payload flip travels on for read-repair, a length flip stops the walk
   before the entry, with every value behind it still in place. *)
let value_step ~base buf ~pos =
  match frame_at Value_log ~base buf ~pos with
  | Frame f when not (value_verifies buf ~pos ~len:f.len) -> (
      let next = pos + f.len in
      match frame_at Value_log ~base buf ~pos:next with
      | Frame g when value_verifies buf ~pos:next ~len:g.len -> Frame f
      | Stop -> Stop
      | Frame _ | Rot -> Rot)
  | step -> step

(* The next bucket after [pos] that verifies with chain_pos 0. Every
   key-log append is a whole segment of whole buckets, so it starts a
   frame. *)
let rec resync buf ~pos =
  let pos = pos + bucket_size in
  if pos + bucket_size > Bytes.length buf then None
  else
    match check_bucket ~off:pos buf with
    | () when get_u8 buf (pos + 2) = 0 -> Some pos
    | () | (exception Corrupt _) -> resync buf ~pos

let walk_window log ~base buf ~on_rot =
  let rec walk pos acc =
    match
      match log with Key_log -> frame_at log ~base buf ~pos | Value_log -> value_step ~base buf ~pos
    with
    | Frame f -> walk (pos + f.len) (f :: acc)
    | Stop -> (List.rev acc, base + pos)
    | Rot -> (
        let resume = match log with Key_log -> resync buf ~pos | Value_log -> None in
        let skip = on_rot ~at:(base + pos) ~resume:(Option.map (( + ) base) resume) in
        match resume with
        | Some next when skip -> walk next acc
        | _ -> (List.rev acc, base + pos))
  in
  walk 0 []
