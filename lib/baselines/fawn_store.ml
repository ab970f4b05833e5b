(* FAWN-DS [SOSP'09] — the log-structured datastore of the embedded
   baseline, reimplemented over the simulated block devices.

   One append-only (circular, compacted) data log holds (key, value)
   entries; a DRAM hash index maps each key to its newest log offset. The
   paper's budget is 6 bytes of DRAM per object (15-bit key fragment +
   valid bit + 4-byte pointer) — which is exactly what caps FAWN-JBOF at
   7.7%/24.1% of the flash when ported to a SmartNIC JBOF (Table 3).

   GET = one SSD access. PUT goes through a write-behind buffer and a
   periodic group flush, so log-structured writes run *faster* than reads
   (Fig. 12's FAWN curve). DEL appends a tombstone. *)

open Leed_sim
open Leed_core

exception Index_full
(* DRAM budget exhausted: FAWN cannot index more objects (Table 3). *)

type config = {
  dram_budget : int;            (* bytes available for the hash index *)
  flush_threshold : int;        (* write-behind buffer size *)
  charge : float -> unit;       (* CPU-cycle hook *)
}

let default_config =
  {
    dram_budget = 64 * 1024 * 1024;
    flush_threshold = 64 * 1024;
    charge = (fun _ -> ());
  }

let index_bytes_per_object = 6 (* the paper's 6 B *)
let compact_trigger = 0.85
let compact_target = 0.6
let compaction_window = 256 * 1024

(* Log entry framing: magic(1) klen(1) vlen(4) pad(2) key value.
   vlen = 0 marks a tombstone. *)
let entry_header = 8
let entry_magic = 0xFA

type t = {
  config : config;
  log : Circular_log.t;
  index : (string, int) Hashtbl.t; (* key -> logical offset of newest entry *)
  mutable objects : int;
  max_objects : int;
  (* write-behind: reserved-but-unflushed entries, oldest first *)
  buffer : (int * bytes) Queue.t;
  staged : (int, bytes) Hashtbl.t; (* loff -> entry bytes, pre-flush *)
  mutable buffer_bytes : int;
  mutable reads : int;
  mutable writes : int;
  mutable compactions : int;
  mutable corrupt : int; (* rotted entries the compactor stalled on *)
}

let create ?(config = default_config) ~log () =
  {
    config;
    log;
    index = Hashtbl.create 4096;
    objects = 0;
    max_objects = config.dram_budget / index_bytes_per_object;
    buffer = Queue.create ();
    staged = Hashtbl.create 256;
    buffer_bytes = 0;
    reads = 0;
    writes = 0;
    compactions = 0;
    corrupt = 0;
  }

let objects t = t.objects
let max_objects t = t.max_objects
let log t = t.log

(* Fraction of the flash this store can actually index (Table 3 row 1). *)
let addressable_fraction t ~object_size =
  let flash = float_of_int (Circular_log.size t.log) in
  let indexed = float_of_int (t.max_objects * object_size) in
  Float.min 1.0 (indexed /. flash)

let encode_entry key value =
  let klen = String.length key and vlen = Bytes.length value in
  let out = Bytes.create (entry_header + klen + vlen) in
  Bytes.set_uint8 out 0 entry_magic;
  Bytes.set_uint8 out 1 klen;
  Bytes.set_int32_le out 2 (Int32.of_int vlen);
  Bytes.set_uint16_le out 6 0;
  Bytes.blit_string key 0 out entry_header klen;
  Bytes.blit value 0 out (entry_header + klen) vlen;
  out

exception Corrupt of string

let decode_entry ?(off = 0) buf =
  if Bytes.get_uint8 buf off <> entry_magic then raise (Corrupt "fawn: bad entry magic");
  let klen = Bytes.get_uint8 buf (off + 1) in
  let vlen = Int32.to_int (Bytes.get_int32_le buf (off + 2)) in
  let key = Bytes.sub_string buf (off + entry_header) klen in
  let value = Bytes.sub buf (off + entry_header + klen) vlen in
  (key, value, entry_header + klen + vlen)

(* Group-flush the write-behind buffer as one big sequential write. *)
let flush t =
  if not (Queue.is_empty t.buffer) then begin
    let entries = List.of_seq (Queue.to_seq t.buffer) in
    Queue.clear t.buffer;
    t.buffer_bytes <- 0;
    let first_off = fst (List.hd entries) in
    let total = List.fold_left (fun acc (_, d) -> acc + Bytes.length d) 0 entries in
    let blob = Bytes.create total in
    let pos = ref 0 in
    List.iter
      (fun (_, d) ->
        Bytes.blit d 0 blob !pos (Bytes.length d);
        pos := !pos + Bytes.length d)
      entries;
    Circular_log.write_reserved t.log ~loff:first_off blob;
    List.iter (fun (loff, _) -> Hashtbl.remove t.staged loff) entries
  end

let run_flusher ?(period = 0.002) t = Sim.every ~period (fun () -> flush t; true)

let append_entry t data =
  (if Circular_log.free t.log < Bytes.length data then begin
     (* No room: force-flush and let the compactor (caller-driven) catch
        up; block briefly like the LEED store does. *)
     flush t;
     let tries = ref 0 in
     while Circular_log.free t.log < Bytes.length data do
       incr tries;
       if !tries > 50_000 then failwith "fawn: log permanently full";
       Sim.delay (Sim.us 500.)
     done
   end);
  let loff = Circular_log.reserve t.log (Bytes.length data) in
  Queue.push (loff, data) t.buffer;
  Hashtbl.replace t.staged loff data;
  t.buffer_bytes <- t.buffer_bytes + Bytes.length data;
  (* flush_threshold <= 0 selects synchronous write-through, the behaviour
     of the SPDK port on the JBOF (Table 3's 45-61 us write latency);
     a positive threshold selects the write-behind batching of the
     OS-buffered embedded deployment. *)
  if t.buffer_bytes >= t.config.flush_threshold then flush t;
  loff

let put t key value =
  t.config.charge 3000.;
  if (not (Hashtbl.mem t.index key)) && t.objects >= t.max_objects then raise Index_full;
  let loff = append_entry t (encode_entry key value) in
  if not (Hashtbl.mem t.index key) then t.objects <- t.objects + 1;
  Hashtbl.replace t.index key loff;
  t.writes <- t.writes + 1

let del t key =
  t.config.charge 2500.;
  if Hashtbl.mem t.index key then begin
    Hashtbl.remove t.index key;
    t.objects <- t.objects - 1;
    ignore (append_entry t (encode_entry key Bytes.empty))
  end

(* Read the entry at [loff]: first a fixed-size block (header + small
   entry), then the remainder when the entry is larger — at most two
   accesses, typically one, like the real implementation. *)
let read_entry t loff =
  let first = min 4096 (Circular_log.tail t.log - loff) in
  let buf = Circular_log.read t.log ~loff ~len:first in
  let klen = Bytes.get_uint8 buf 1 in
  let vlen = Int32.to_int (Bytes.get_int32_le buf 2) in
  let total = entry_header + klen + vlen in
  if total <= first then decode_entry buf
  else decode_entry (Circular_log.read t.log ~loff ~len:total)

let get t key =
  t.config.charge 3500.;
  match Hashtbl.find_opt t.index key with
  | None -> None
  | Some loff -> (
      t.reads <- t.reads + 1;
      match Hashtbl.find_opt t.staged loff with
      | Some data ->
          (* Still in the write-behind buffer: DRAM hit. *)
          let _, v, _ = decode_entry data in
          Some v
      | None ->
          let k, v, _ = read_entry t loff in
          if not (String.equal k key) then
            raise (Corrupt (Printf.sprintf "fawn: index pointed %s at entry %s" key k));
          Some v)

(* Log compaction: relocate entries still referenced by the index, skip
   dead ones, advance the head. *)
let compact t =
  flush t;
  let head = Circular_log.head t.log in
  let stop = min (Circular_log.committed_tail t.log) (head + compaction_window) in
  let loff = ref head in
  let rotted = ref false in
  while (not !rotted) && !loff < stop do
    match read_entry t !loff with
    | exception (Corrupt _ | Invalid_argument _) ->
        (* A rotted frame: its length field is untrustworthy, so the scan
           cannot step over it. Stop the round — the head never advances
           past rot, so the single op fails, not the whole store. *)
        t.corrupt <- t.corrupt + 1;
        rotted := true
    | key, value, len ->
        (match Hashtbl.find_opt t.index key with
        | Some o when o = !loff && Bytes.length value > 0 ->
            let new_off = append_entry t (encode_entry key value) in
            Hashtbl.replace t.index key new_off
        | _ -> ());
        loff := !loff + len
  done;
  flush t;
  let reclaimed = !loff - Circular_log.head t.log in
  if reclaimed > 0 then Circular_log.advance_head t.log reclaimed;
  t.compactions <- t.compactions + 1;
  reclaimed

let run_compactor ?(period = 0.01) t =
  Sim.every ~period (fun () ->
      let max_rounds = 2 + (Circular_log.size t.log / compaction_window) in
      if Circular_log.occupancy t.log > compact_trigger then begin
        let rounds = ref 0 in
        while
          Circular_log.occupancy t.log > compact_target
          && (not (Circular_log.is_empty t.log))
          && !rounds < max_rounds
        do
          incr rounds;
          ignore (compact t)
        done
      end;
      true)

type counters = { c_reads : int; c_writes : int; c_compactions : int; c_corrupt : int }

let counters t =
  { c_reads = t.reads; c_writes = t.writes; c_compactions = t.compactions; c_corrupt = t.corrupt }
