(* Circular log (§3.2.1): a fixed-size region of an SSD with monotonically
   increasing logical head/tail offsets. Appends go to the tail (sequential
   writes, the device's fast path), reads address any live logical offset,
   and compaction advances the head to reclaim space.

   Logical offsets never wrap; the physical position is [base + loff mod
   size]. An append crossing the physical end is split into two device
   writes, exactly like a real implementation would issue them. *)

open Leed_blockdev

exception Log_full of string

type t = {
  name : string;
  dev : Blockdev.t;
  dev_id : int; (* identifies the SSD within the JBOF (swap metadata, §3.6) *)
  base : int;   (* physical byte offset of the region on the device *)
  size : int;
  mutable head : int; (* logical offset of the oldest live byte *)
  mutable tail : int; (* logical offset one past the newest reserved byte *)
  mutable appended_bytes : int;
  mutable reclaimed_bytes : int;
  (* in-flight appends: space reserved but device write not yet complete *)
  mutable outstanding : (int * int) list;
  (* readers currently dereferencing into this log; the swap-region
     reclaimer must not advance the head while any are active *)
  mutable pins : int;
}

let create ~name ~dev ~dev_id ~base ~size =
  if size <= 0 then invalid_arg "Circular_log.create: size must be positive";
  {
    name;
    dev;
    dev_id;
    base;
    size;
    head = 0;
    tail = 0;
    appended_bytes = 0;
    reclaimed_bytes = 0;
    outstanding = [];
    pins = 0;
  }

let name t = t.name
let dev_id t = t.dev_id
let size t = t.size
let head t = t.head
let tail t = t.tail
let used t = t.tail - t.head
let free t = t.size - used t
let is_empty t = t.head = t.tail

(* Fraction of the region holding live-or-stale data; compaction triggers
   on this. *)
let occupancy t = float_of_int (used t) /. float_of_int t.size

let phys t loff = t.base + (loff mod t.size)

(* Bytes from [loff] to the physical end of the region: a range of [len]
   bytes at [loff] wraps, and takes two device commands, iff [len] exceeds
   this. *)
let room_before_wrap t loff = t.base + t.size - phys t loff

(* Write [data] at [loff]. A range that does not wrap hands [data] itself
   to the device, which copies it into the medium when the command
   completes; only a wrapping range is cut in two. *)
let write_range t ~loff data =
  let len = Bytes.length data and p = phys t loff in
  let first = room_before_wrap t loff in
  if len <= first then Blockdev.write_seq t.dev ~off:p data
  else begin
    Blockdev.write_seq t.dev ~off:p (Bytes.sub data 0 first);
    Blockdev.write_seq t.dev ~off:t.base (Bytes.sub data first (len - first))
  end

(* Offsets below this are fully durable: every scanner (compaction,
   recovery) must stop here, never at [tail], because appends reserve their
   range before the device write completes. *)
let committed_tail t =
  List.fold_left (fun acc (loff, _) -> min acc loff) t.tail t.outstanding

(* Block until the whole log prefix through the entry at [loff] is durable
   — i.e. no reservation at or below it is still in flight. An entry after
   a torn hole is unreachable to the append-order recovery scan, so a
   caller acknowledging a write must wait for this, not just for its own
   device write (group-commit semantics). *)
let wait_durable t ~loff =
  while committed_tail t <= loff do
    Leed_sim.Sim.delay (Leed_sim.Sim.us 5.)
  done

(* Crash recovery: reservations left by writers that died mid-append are
   torn holes. The append-order scan can never read past the first one, so
   recovery truncates the log there — completed entries beyond it are
   durable but unreachable, exactly like a torn tail on a real log — and
   drops the dead reservations. *)
let truncate_torn t =
  let ct = committed_tail t in
  t.appended_bytes <- t.appended_bytes - (t.tail - ct);
  t.tail <- ct;
  t.outstanding <- []

(* Two-phase append for write-behind buffering: [reserve] claims the range
   immediately (so later appends are ordered behind it), [write_reserved]
   pushes the bytes to the device whenever the buffer flushes. *)
let reserve t len =
  if len > free t then
    raise
      (Log_full
         (Printf.sprintf "%s: reserve of %d bytes exceeds free space %d" t.name len (free t)));
  let loff = t.tail in
  t.tail <- t.tail + len;
  t.appended_bytes <- t.appended_bytes + len;
  t.outstanding <- (loff, len) :: t.outstanding;
  loff

(* Write a blob covering one or more contiguous reservations starting at
   [loff]; all reservations fully inside the blob are marked durable. *)
let write_reserved t ~loff data =
  let len = Bytes.length data in
  let settle () =
    t.outstanding <-
      List.filter (fun (o, l) -> not (o >= loff && o + l <= loff + len)) t.outstanding
  in
  (try write_range t ~loff data with e ->
     settle ();
     raise e);
  settle ()

(* Reserve first: concurrent appends must not claim the same range while
   this one blocks on the device. *)
let append t data =
  let loff = reserve t (Bytes.length data) in
  write_reserved t ~loff data;
  loff

let pin t = t.pins <- t.pins + 1

let unpin t =
  t.pins <- t.pins - 1;
  if t.pins < 0 then invalid_arg (t.name ^ ": unbalanced unpin")

let pinned t = t.pins

let with_pin t f =
  pin t;
  match f () with
  | v ->
      unpin t;
      v
  | exception e ->
      unpin t;
      raise e

(* A read is legal while the bytes are physically intact: written (below
   the tail) and not yet overwritten by the wrap-around (within one ring
   circumference of the tail). Readers holding a pre-compaction snapshot
   may therefore still read entries the head has passed — exactly the
   guarantee real flash gives until the space is reused. *)
let check_readable t ~loff ~len =
  if loff < 0 || loff + len > t.tail || t.tail - loff > t.size then
    invalid_arg
      (Printf.sprintf "%s: read [%d,%d) outside readable range (head=%d tail=%d size=%d)" t.name
         loff (loff + len) t.head t.tail t.size)

(* A range that does not wrap returns the device's own result, a fresh
   buffer; only a wrapping range is assembled from two reads. *)
let read t ~loff ~len =
  check_readable t ~loff ~len;
  let p = phys t loff and first = room_before_wrap t loff in
  if len <= first then Blockdev.read t.dev ~off:p ~len
  else begin
    let out = Bytes.create len in
    Bytes.blit (Blockdev.read t.dev ~off:p ~len:first) 0 out 0 first;
    Bytes.blit (Blockdev.read t.dev ~off:t.base ~len:(len - first)) 0 out first (len - first);
    out
  end

(* [read] without the copy: a range that does not wrap is the device's
   view; a wrapping one is assembled by [read] as before. *)
let read_view t ~loff ~len =
  check_readable t ~loff ~len;
  if len <= room_before_wrap t loff then Blockdev.read_view t.dev ~off:(phys t loff) ~len
  else (read t ~loff ~len, 0)

(* Move the head forward, reclaiming [n] bytes. Only compaction calls this,
   after relocating every live entry below the new head. *)
let advance_head t n =
  if n < 0 || n > used t then
    invalid_arg (Printf.sprintf "%s: cannot advance head by %d (used %d)" t.name n (used t));
  t.head <- t.head + n;
  t.reclaimed_bytes <- t.reclaimed_bytes + n

type stats = { appended : int; reclaimed : int; live : int }

let stats t = { appended = t.appended_bytes; reclaimed = t.reclaimed_bytes; live = used t }
