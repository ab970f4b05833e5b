(* Tests for the LEED data store: circular log, codecs, segment table, and
   GET/PUT/DEL/compaction semantics. *)

open Leed_sim
open Leed_blockdev
open Leed_core

let instant_dev () = Blockdev.create (Blockdev.instant ())

let make_logs ?(dev_id = 0) ?(ksize = 1 lsl 20) ?(vsize = 1 lsl 22) () =
  let dev = instant_dev () in
  let klog = Circular_log.create ~name:"klog" ~dev ~dev_id ~base:0 ~size:ksize in
  let vlog = Circular_log.create ~name:"vlog" ~dev ~dev_id ~base:ksize ~size:vsize in
  (dev, klog, vlog)

let small_config =
  { Store.default_config with Store.nsegments = 64; compaction_window = 16 * 1024 }

let make_store ?(config = small_config) ?name () =
  let _, klog, vlog = make_logs () in
  Store.create ~config ~name:(Option.value name ~default:"s0") ~klog ~vlog ()

(* --- circular log --- *)

let test_log_append_read () =
  Sim.run (fun () ->
      let _, log, _ = make_logs () in
      let o1 = Circular_log.append log (Bytes.of_string "hello") in
      let o2 = Circular_log.append log (Bytes.of_string "world") in
      Alcotest.(check int) "o1" 0 o1;
      Alcotest.(check int) "o2" 5 o2;
      Alcotest.(check string) "r1" "hello" (Bytes.to_string (Circular_log.read log ~loff:o1 ~len:5));
      Alcotest.(check string) "r2" "world" (Bytes.to_string (Circular_log.read log ~loff:o2 ~len:5)))

let test_log_wraparound () =
  Sim.run (fun () ->
      let dev = instant_dev () in
      let log = Circular_log.create ~name:"w" ~dev ~dev_id:0 ~base:0 ~size:100 in
      let _ = Circular_log.append log (Bytes.make 80 'a') in
      Circular_log.advance_head log 80;
      (* This append physically wraps: 80..100 then 0..60. *)
      let o = Circular_log.append log (Bytes.init 80 (fun i -> Char.chr (65 + (i mod 26)))) in
      Alcotest.(check int) "logical offset" 80 o;
      let back = Circular_log.read log ~loff:o ~len:80 in
      Alcotest.(check string) "wrapped data intact"
        (String.init 80 (fun i -> Char.chr (65 + (i mod 26))))
        (Bytes.to_string back))

let test_log_full_raises () =
  Sim.run (fun () ->
      let dev = instant_dev () in
      let log = Circular_log.create ~name:"f" ~dev ~dev_id:0 ~base:0 ~size:10 in
      let _ = Circular_log.append log (Bytes.make 8 'x') in
      match Circular_log.append log (Bytes.make 5 'y') with
      | _ -> Alcotest.fail "expected Log_full"
      | exception Circular_log.Log_full _ -> ())

let test_log_stale_read_semantics () =
  (* Flash semantics: entries the head has passed stay readable until the
     tail wraps over their physical space; beyond that, reads fail. *)
  Sim.run (fun () ->
      let dev = instant_dev () in
      let log = Circular_log.create ~name:"s" ~dev ~dev_id:0 ~base:0 ~size:100 in
      let o = Circular_log.append log (Bytes.make 10 'x') in
      Circular_log.advance_head log 10;
      (* Still physically intact: readable. *)
      Alcotest.(check string) "stale but intact" (String.make 10 'x')
        (Bytes.to_string (Circular_log.read log ~loff:o ~len:10));
      (* Wrap the tail over it: now rejected. *)
      let _ = Circular_log.append log (Bytes.make 95 'y') in
      match Circular_log.read log ~loff:o ~len:10 with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_log_occupancy () =
  Sim.run (fun () ->
      let dev = instant_dev () in
      let log = Circular_log.create ~name:"o" ~dev ~dev_id:0 ~base:0 ~size:100 in
      Alcotest.(check (float 1e-9)) "empty" 0. (Circular_log.occupancy log);
      let _ = Circular_log.append log (Bytes.make 25 'x') in
      Alcotest.(check (float 1e-9)) "quarter" 0.25 (Circular_log.occupancy log);
      Circular_log.advance_head log 25;
      Alcotest.(check (float 1e-9)) "drained" 0. (Circular_log.occupancy log);
      Alcotest.(check int) "free" 100 (Circular_log.free log))

let log_roundtrip_prop =
  QCheck.Test.make ~name:"log append/read roundtrip with head advances" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (string_of_size (Gen.int_range 1 64)))
    (fun payloads ->
      Sim.run (fun () ->
          let dev = instant_dev () in
          let log = Circular_log.create ~name:"p" ~dev ~dev_id:0 ~base:0 ~size:4096 in
          let live = Queue.create () in
          let ok = ref true in
          List.iter
            (fun s ->
              let data = Bytes.of_string s in
              (* Free space first if needed. *)
              while Circular_log.free log < Bytes.length data do
                let o, d = Queue.pop live in
                ignore o;
                Circular_log.advance_head log (String.length d)
              done;
              let o = Circular_log.append log data in
              Queue.push (o, s) live)
            payloads;
          Queue.iter
            (fun (o, s) ->
              let got = Bytes.to_string (Circular_log.read log ~loff:o ~len:(String.length s)) in
              if got <> s then ok := false)
            live;
          !ok))

(* --- codec --- *)

let test_bucket_roundtrip () =
  let items =
    [
      { Codec.key = "k000000000000001"; vlen = 100; voff = 4096; vdev = 0 };
      { Codec.key = "k000000000000002"; vlen = 0; voff = 0; vdev = -1 };
      { Codec.key = "abc"; vlen = 7; voff = 123456789; vdev = 3 };
    ]
  in
  let b =
    { Codec.bindex = 0xDEADBEEF; chain_len = 2; chain_pos = 1; seg_id = 42;
      log_head = 1000; log_tail = 2000; items }
  in
  let dec = Codec.decode_bucket (Codec.encode_bucket b) in
  Alcotest.(check int) "bindex" 0xDEADBEEF dec.Codec.bindex;
  Alcotest.(check int) "chain_len" 2 dec.Codec.chain_len;
  Alcotest.(check int) "chain_pos" 1 dec.Codec.chain_pos;
  Alcotest.(check int) "seg" 42 dec.Codec.seg_id;
  Alcotest.(check int) "log_head" 1000 dec.Codec.log_head;
  Alcotest.(check int) "items" 3 (List.length dec.Codec.items);
  List.iter2
    (fun (a : Codec.item) (b : Codec.item) ->
      Alcotest.(check string) "key" a.Codec.key b.Codec.key;
      Alcotest.(check int) "vlen" a.Codec.vlen b.Codec.vlen;
      Alcotest.(check int) "voff" a.Codec.voff b.Codec.voff;
      Alcotest.(check int) "vdev" a.Codec.vdev b.Codec.vdev)
    items dec.Codec.items

(* encode_segment chains the items greedily: its bytes must be
   single-bucket encodings back to back, numbered over the chain, each
   carrying the segment, the recovery hints and the first item's bucket
   index, and holding the items in order. The layout must not move: the
   checksum was recorded from the store's own split and per-bucket encoder
   before the split moved into the codec. *)
let test_segment_bytes () =
  let items =
    List.init 40 (fun j ->
        { Codec.key = Printf.sprintf "key-%d%s" j (String.make (j mod 9) 'x'); vlen = 100 * (j mod 5);
          voff = 512 * j; vdev = (j mod 3) - 1 })
  in
  let seg, chain_len = Codec.encode_segment ~seg:11 ~log_head:4096 ~log_tail:65536 items in
  Alcotest.(check int) "chained" 3 chain_len;
  Alcotest.(check int) "bytes" (Codec.segment_bytes ~chain_len) (Bytes.length seg);
  let buckets = List.init chain_len (fun i -> Codec.decode_bucket ~off:(i * Codec.bucket_size) seg) in
  List.iteri
    (fun i (b : Codec.bucket) ->
      Alcotest.(check (list int)) "header"
        [ Codec.bucket_index_of_key "key-0"; chain_len; i; 11; 4096; 65536 ]
        [ b.Codec.bindex; b.chain_len; b.chain_pos; b.seg_id; b.log_head; b.log_tail ])
    buckets;
  Alcotest.(check (list string)) "items in order"
    (List.map (fun (it : Codec.item) -> it.Codec.key) items)
    (List.concat_map (fun (b : Codec.bucket) -> List.map (fun (it : Codec.item) -> it.Codec.key) b.items) buckets);
  Alcotest.(check int) "layout checksum" 1679099053 (Codec.crc32 seg ~pos:0 ~len:(Bytes.length seg));
  let empty, n = Codec.encode_segment ~seg:5 ~log_head:1 ~log_tail:2 [] in
  Alcotest.(check int) "empty segment is one empty bucket" 1 n;
  Alcotest.(check int) "empty layout checksum" 1341878775 (Codec.crc32 empty ~pos:0 ~len:(Bytes.length empty))

let test_value_entry_roundtrip () =
  let ve = { Codec.ve_seg = 17; ve_key = "k000000000000009"; ve_value = Bytes.of_string "payload!" } in
  let buf = Codec.encode_value_entry ve in
  let dec = Codec.decode_value_entry ~off:0 ~len:(Bytes.length buf) buf in
  Alcotest.(check int) "seg" 17 dec.Codec.ve_seg;
  Alcotest.(check string) "key" ve.Codec.ve_key dec.Codec.ve_key;
  Alcotest.(check string) "value" "payload!" (Bytes.to_string dec.Codec.ve_value)

let test_corrupt_rejected () =
  (match Codec.decode_bucket (Bytes.make Codec.bucket_size '\042') with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Codec.Corrupt _ -> ());
  match Codec.decode_value_entry ~off:0 ~len:20 (Bytes.make 20 '\001') with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Codec.Corrupt _ -> ()

let codec_bucket_prop =
  QCheck.Test.make ~name:"bucket codec roundtrip" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 10)
        (triple (string_of_size (Gen.int_range 1 32)) (int_bound 100000) (int_bound 1_000_000)))
    (fun raw ->
      let items =
        List.map (fun (k, vlen, voff) -> { Codec.key = k; vlen; voff; vdev = 1 }) raw
      in
      let b =
        { Codec.bindex = 7; chain_len = 1; chain_pos = 0; seg_id = 3; log_head = 0; log_tail = 0; items }
      in
      if Codec.bucket_fits b then begin
        let dec = Codec.decode_bucket (Codec.encode_bucket b) in
        List.length dec.Codec.items = List.length items
        && List.for_all2
             (fun (a : Codec.item) (b : Codec.item) ->
               a.Codec.key = b.Codec.key && a.Codec.vlen = b.Codec.vlen && a.Codec.voff = b.Codec.voff)
             items dec.Codec.items
      end
      else true)

let test_segment_split_merge () =
  (* A bucket holds 472 bytes of items: fifteen 30-byte items (16-byte
     keys) fit in one, a sixteenth starts a second, and a strict decode
     gives every item back in order. *)
  let items n =
    List.init n (fun i ->
        { Codec.key = Leed_workload.Workload.key_of_id i; vlen = 10; voff = i * 100; vdev = 0 })
  in
  let chain n = snd (Codec.encode_segment ~seg:0 ~log_head:0 ~log_tail:0 (items n)) in
  Alcotest.(check int) "15 items, one bucket" 1 (chain 15);
  Alcotest.(check int) "16 items, two buckets" 2 (chain 16);
  let data, chain_len = Codec.encode_segment ~seg:0 ~log_head:0 ~log_tail:0 (items 40) in
  Alcotest.(check int) "40 items, three buckets" 3 chain_len;
  let back = Codec.decode_segment ~off:0 ~len:(Bytes.length data) data in
  Alcotest.(check bool) "in chain order" true back.Codec.in_order;
  Alcotest.(check (list string)) "items back"
    (List.map (fun (it : Codec.item) -> it.Codec.key) (items 40))
    (List.map (fun (it : Codec.item) -> it.Codec.key) back.Codec.seg_items)

let test_segment_bucket_limit () =
  (* chain_len and chain_pos are one byte each: 255 buckets encode, 256
     would wrap both. An item with a 255-byte key fills a bucket alone. *)
  let item i = { Codec.key = String.make 255 (Char.chr (65 + (i mod 26))); vlen = 1; voff = i; vdev = 0 } in
  let encode n = Codec.encode_segment ~seg:1 ~log_head:0 ~log_tail:0 (List.init n item) in
  let n = Codec.max_chain_len in
  let data, chain_len = encode n in
  Alcotest.(check int) "255 buckets" n chain_len;
  let back = Codec.decode_segment ~off:0 ~len:(Bytes.length data) data in
  Alcotest.(check int) "255 items round-trip" n (List.length back.Codec.seg_items);
  Alcotest.(check bool) "in chain order" true back.Codec.in_order;
  Alcotest.check_raises "256 buckets rejected"
    (Invalid_argument "Codec.encode_segment: 256 buckets exceed 255")
    (fun () -> ignore (encode (n + 1)))

(* --- segtbl --- *)

let test_segtbl_lock_mutex () =
  Sim.run (fun () ->
      let tbl = Segtbl.create ~nsegments:4 ~home_dev:0 () in
      let order = ref [] in
      Segtbl.lock tbl 1;
      Sim.spawn (fun () ->
          Segtbl.lock tbl 1;
          order := "second" :: !order;
          Segtbl.unlock tbl 1);
      Sim.spawn (fun () ->
          order := "first" :: !order);
      Sim.delay 0.1;
      Alcotest.(check (list string)) "only unlocked ran" [ "first" ] !order;
      Segtbl.unlock tbl 1;
      Sim.delay 0.1;
      Alcotest.(check (list string)) "handed over" [ "second"; "first" ] !order)

let test_segtbl_trylock () =
  Sim.run (fun () ->
      let tbl = Segtbl.create ~nsegments:2 ~home_dev:0 () in
      Alcotest.(check bool) "acquired" true (Segtbl.try_lock tbl 0);
      Alcotest.(check bool) "busy" false (Segtbl.try_lock tbl 0);
      Segtbl.unlock tbl 0;
      Alcotest.(check bool) "again" true (Segtbl.try_lock tbl 0))

let test_segtbl_memory_budget () =
  (* The Challenge-1 arithmetic: with ~16 objects per segment and 6-byte
     entries, the index must stay under 0.5 B per object. *)
  let tbl = Segtbl.create ~nsegments:1000 ~home_dev:0 () in
  let objects = 16_000 in
  let per_obj = float_of_int (Segtbl.modeled_bytes tbl) /. float_of_int objects in
  Alcotest.(check bool) (Printf.sprintf "%.3f B/obj < 0.5" per_obj) true (per_obj < 0.5)

(* --- store: basic semantics --- *)

let test_store_key_length () =
  (* A key's length is one byte on flash: a 255-byte key round-trips, a
     longer one is refused instead of being written truncated (and then
     never found). *)
  Sim.run (fun () ->
      let st = make_store () in
      let k255 = String.make 255 'k' and k300 = String.make 300 'k' in
      Store.put st k255 (Bytes.of_string "long");
      Alcotest.(check (option string)) "255-byte key served" (Some "long")
        (Option.map Bytes.to_string (Store.get st k255));
      Alcotest.check_raises "300-byte put rejected"
        (Invalid_argument "Store.put: key longer than 255 bytes")
        (fun () -> Store.put st k300 (Bytes.of_string "x"));
      Alcotest.check_raises "300-byte del rejected"
        (Invalid_argument "Store.del: key longer than 255 bytes")
        (fun () -> Store.del st k300);
      Store.del st k255;
      Alcotest.(check (option string)) "255-byte key deleted" None
        (Option.map Bytes.to_string (Store.get st k255)))

let test_store_put_get () =
  Sim.run (fun () ->
      let st = make_store () in
      Store.put st "k000000000000001" (Bytes.of_string "value-1");
      (match Store.get st "k000000000000001" with
      | Some v -> Alcotest.(check string) "value" "value-1" (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      Alcotest.(check (option string)) "absent key" None
        (Option.map Bytes.to_string (Store.get st "k000000000000002")))

(* The store bounds values at 1 MiB: exactly 1 MiB is stored, one byte
   over is rejected, and the keys already written stay readable. *)
let test_store_value_too_large () =
  Sim.run (fun () ->
      let st = make_store () in
      Store.put st "kA" (Bytes.of_string "small");
      Store.put st "kMax" (Bytes.make (1 lsl 20) 'm');
      Alcotest.check_raises "one byte over 1 MiB" (Invalid_argument "Store.put: value too large")
        (fun () -> Store.put st "kBig" (Bytes.make ((1 lsl 20) + 1) 'b'));
      Alcotest.(check (option string)) "earlier key served" (Some "small")
        (Option.map Bytes.to_string (Store.get st "kA"));
      Alcotest.(check (option int)) "1 MiB value served" (Some (1 lsl 20))
        (Option.map Bytes.length (Store.get st "kMax"));
      Alcotest.(check (option string)) "rejected key absent" None
        (Option.map Bytes.to_string (Store.get st "kBig"));
      Alcotest.(check int) "objects" 2 (Store.objects st))

let test_store_overwrite () =
  Sim.run (fun () ->
      let st = make_store () in
      Store.put st "kA" (Bytes.of_string "old");
      Store.put st "kA" (Bytes.of_string "new");
      (match Store.get st "kA" with
      | Some v -> Alcotest.(check string) "latest wins" "new" (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      Alcotest.(check int) "objects counted once" 1 (Store.objects st))

let test_store_delete () =
  Sim.run (fun () ->
      let st = make_store () in
      Store.put st "kA" (Bytes.of_string "v");
      Store.del st "kA";
      Alcotest.(check (option string)) "deleted" None (Option.map Bytes.to_string (Store.get st "kA"));
      Alcotest.(check int) "objects" 0 (Store.objects st);
      (* Deleting a non-existent key is a no-op. *)
      Store.del st "kB";
      (* Re-insert after delete. *)
      Store.put st "kA" (Bytes.of_string "v2");
      match Store.get st "kA" with
      | Some v -> Alcotest.(check string) "reinserted" "v2" (Bytes.to_string v)
      | None -> Alcotest.fail "missing after reinsert")

let test_store_many_keys () =
  Sim.run (fun () ->
      let st = make_store () in
      for i = 0 to 499 do
        Store.put st (Leed_workload.Workload.key_of_id i) (Bytes.of_string (Printf.sprintf "val%d" i))
      done;
      Alcotest.(check int) "objects" 500 (Store.objects st);
      for i = 0 to 499 do
        match Store.get st (Leed_workload.Workload.key_of_id i) with
        | Some v -> Alcotest.(check string) "value" (Printf.sprintf "val%d" i) (Bytes.to_string v)
        | None -> Alcotest.failf "missing key %d" i
      done)

let test_store_nvme_access_counts () =
  Sim.run (fun () ->
      let st = make_store () in
      Store.put st "kW" (Bytes.of_string "warm");
      (* A GET on a materialised segment = 2 accesses (§3.3). *)
      let before = (Store.stats st Store.Get).Store.nvme_accesses in
      ignore (Store.get st "kW");
      let after = (Store.stats st Store.Get).Store.nvme_accesses in
      Alcotest.(check int) "GET = 2 accesses" 2 (after - before);
      (* A PUT on an existing segment = 3 accesses. *)
      let before = (Store.stats st Store.Put).Store.nvme_accesses in
      Store.put st "kW" (Bytes.of_string "warm2");
      let after = (Store.stats st Store.Put).Store.nvme_accesses in
      Alcotest.(check int) "PUT = 3 accesses" 3 (after - before);
      (* A DEL = 2 accesses. *)
      let before = (Store.stats st Store.Del).Store.nvme_accesses in
      Store.del st "kW";
      let after = (Store.stats st Store.Del).Store.nvme_accesses in
      Alcotest.(check int) "DEL = 2 accesses" 2 (after - before))

let test_store_index_memory () =
  Sim.run (fun () ->
      let st = make_store () in
      for i = 0 to 999 do
        Store.put st (Leed_workload.Workload.key_of_id i) (Bytes.make 16 'v')
      done;
      let per_obj = Store.index_bytes_per_object st in
      Alcotest.(check bool) (Printf.sprintf "%.3f B/obj < 0.5" per_obj) true (per_obj < 0.5))

let test_concurrent_puts_same_segment () =
  (* Two concurrent PUTs to colliding keys must both survive (the segment
     lock prevents the lost-update race). Force collisions with nsegments=1. *)
  Sim.run (fun () ->
      let config = { small_config with Store.nsegments = 1 } in
      let st = make_store ~config () in
      let dev_profile = { (Blockdev.dct983) with Blockdev.jitter = 0. } in
      ignore dev_profile;
      Sim.fork_join
        (List.init 10 (fun i () ->
             Store.put st (Leed_workload.Workload.key_of_id i) (Bytes.of_string (string_of_int i))));
      for i = 0 to 9 do
        match Store.get st (Leed_workload.Workload.key_of_id i) with
        | Some v -> Alcotest.(check string) "survived" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "lost update for key %d" i
      done)

(* --- store: compaction --- *)

let test_key_log_compaction_reclaims () =
  Sim.run (fun () ->
      let st = make_store () in
      (* Overwrite the same keys many times: most segment copies are stale. *)
      for round = 1 to 20 do
        for i = 0 to 19 do
          Store.put st (Leed_workload.Workload.key_of_id i) (Bytes.of_string (Printf.sprintf "r%d" round))
        done
      done;
      let used_before = Circular_log.used (Store.klog st) in
      (* Bounded rounds: relocation keeps "reclaiming" live bytes forever on
         a circular log, so loop a fixed number of windows. *)
      let reclaimed = ref 0 in
      for _ = 1 to 40 do
        reclaimed := !reclaimed + Store.compact_key_log st
      done;
      Alcotest.(check bool)
        (Printf.sprintf "reclaimed %d of %d" !reclaimed used_before)
        true
        (!reclaimed > used_before / 2);
      (* All data still readable. *)
      for i = 0 to 19 do
        match Store.get st (Leed_workload.Workload.key_of_id i) with
        | Some v -> Alcotest.(check string) "post-compaction value" "r20" (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost by compaction" i
      done)

let test_value_log_compaction_reclaims () =
  Sim.run (fun () ->
      let st = make_store () in
      for round = 1 to 10 do
        for i = 0 to 19 do
          Store.put st (Leed_workload.Workload.key_of_id i)
            (Bytes.of_string (Printf.sprintf "round-%d-val-%d" round i))
        done
      done;
      let reclaimed = ref 0 in
      for _ = 1 to 40 do
        reclaimed := !reclaimed + Store.compact_value_log st
      done;
      Alcotest.(check bool) (Printf.sprintf "reclaimed %d > 0" !reclaimed) true (!reclaimed > 0);
      for i = 0 to 19 do
        match Store.get st (Leed_workload.Workload.key_of_id i) with
        | Some v ->
            Alcotest.(check string) "latest value survives" (Printf.sprintf "round-10-val-%d" i)
              (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost by value compaction" i
      done)

let test_compaction_purges_tombstones () =
  Sim.run (fun () ->
      let st = make_store () in
      for i = 0 to 19 do
        Store.put st (Leed_workload.Workload.key_of_id i) (Bytes.of_string "x")
      done;
      for i = 0 to 19 do
        Store.del st (Leed_workload.Workload.key_of_id i)
      done;
      for _ = 1 to 40 do
        ignore (Store.compact_key_log st)
      done;
      (* Everything deleted and compacted: the key log should be empty. *)
      Alcotest.(check int) "key log empty" 0 (Circular_log.used (Store.klog st));
      for i = 0 to 19 do
        Alcotest.(check (option string)) "still deleted" None
          (Option.map Bytes.to_string (Store.get st (Leed_workload.Workload.key_of_id i)))
      done)

let test_background_compactor_sustains_writes () =
  (* Small logs + endless overwrites: without the compactor this would hit
     Log_full; with it, writes keep flowing. *)
  Sim.run (fun () ->
      let dev = instant_dev () in
      let klog = Circular_log.create ~name:"k" ~dev ~dev_id:0 ~base:0 ~size:(64 * 1024) in
      let vlog = Circular_log.create ~name:"v" ~dev ~dev_id:0 ~base:(1 lsl 20) ~size:(64 * 1024) in
      let config = { small_config with Store.compaction_window = 8 * 1024 } in
      let st = Store.create ~config ~name:"bg" ~klog ~vlog () in
      Store.run_compactor ~period:0.001 st;
      for round = 1 to 50 do
        for i = 0 to 19 do
          Store.put st (Leed_workload.Workload.key_of_id i)
            (Bytes.of_string (Printf.sprintf "round%d" round));
          Sim.delay (Sim.us 50.)
        done
      done;
      for i = 0 to 19 do
        match Store.get st (Leed_workload.Workload.key_of_id i) with
        | Some v -> Alcotest.(check string) "latest" "round50" (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost" i
      done)

(* The key-log compactor reads its window once and relocates from those
   bytes: with no foreground traffic and a value log below its target,
   every read on the key log's own device is one round's window. *)
let test_key_round_reads_window_once () =
  Sim.run (fun () ->
      let kdev = instant_dev () and vdev = instant_dev () in
      let klog = Circular_log.create ~name:"k" ~dev:kdev ~dev_id:0 ~base:0 ~size:(64 * 1024) in
      let vlog = Circular_log.create ~name:"v" ~dev:vdev ~dev_id:0 ~base:0 ~size:(4 lsl 20) in
      let config =
        { small_config with Store.compaction_window = 8 * 1024; compact_trigger = 0.5;
          compact_target = 0.3 }
      in
      let st = Store.create ~config ~name:"once" ~klog ~vlog () in
      (* Overwrite 20 keys until most of the key log is stale copies. *)
      let round = ref 0 in
      while Circular_log.occupancy klog < 0.6 do
        incr round;
        for i = 0 to 19 do
          Store.put st (Leed_workload.Workload.key_of_id i) (Bytes.of_string (string_of_int !round))
        done
      done;
      let reads0 = (Blockdev.stats kdev).Blockdev.n_reads in
      Store.run_compactor ~period:0.001 st;
      Sim.delay 0.02;
      let runs = (Store.counters st).Store.compaction_runs in
      Alcotest.(check bool) (Printf.sprintf "%d rounds ran" runs) true (runs > 1);
      Alcotest.(check bool) "key log back under its target" true
        (Circular_log.occupancy klog <= config.Store.compact_target);
      Alcotest.(check int) "one key-log read per round" runs
        ((Blockdev.stats kdev).Blockdev.n_reads - reads0);
      for i = 0 to 19 do
        Alcotest.(check (option string)) "latest value" (Some (string_of_int !round))
          (Option.map Bytes.to_string (Store.get st (Leed_workload.Workload.key_of_id i)))
      done)

(* Both compactors under a fixed GET/PUT/DEL mix on fig13's squeezed store
   shape (256 segments, 96 KiB window, trigger 0.7, target 0.5, 4
   sub-compactions) on a DCT983 model, with CPU charges serialised on one
   simulated core, then a recovery of a fresh store over the same logs.
   Every number in the summary is simulated: the event count, the store's
   counters, both logs' stats, the live objects and the key-log bytes
   between head and tail. A change to how either compactor reads, decodes,
   charges or writes moves at least one of them; a refactor that keeps the
   behaviour keeps them all. *)
let compaction_pin () =
  Sim.run (fun () ->
      let dev = Blockdev.create ~rng:(Rng.create 5) Blockdev.dct983 in
      let ksize = 768 * 1024 and vsize = 2048 * 1024 in
      let klog = Circular_log.create ~name:"k" ~dev ~dev_id:0 ~base:0 ~size:ksize in
      let vlog = Circular_log.create ~name:"v" ~dev ~dev_id:0 ~base:ksize ~size:vsize in
      let config =
        { Store.nsegments = 256; subcompactions = 4; compaction_window = 96 * 1024;
          compact_trigger = 0.7; compact_target = 0.5 }
      in
      let st = Store.create ~config ~name:"pin" ~klog ~vlog () in
      let core = Sim.Resource.create ~name:"core" ~capacity:1 () in
      Store.set_charge st (fun cycles -> Sim.Resource.with_ core (fun () -> Sim.delay (cycles /. 3e9)));
      Store.run_compactor ~period:0.001 st;
      let rng = Rng.create 13 in
      (* 4000 keys of 2-17 bytes: about 16 items per segment, so chains of
         one and two buckets, and bucket payloads that land on every byte
         count up to the 472-byte limit. *)
      let key () =
        let id = Rng.int rng 4000 in
        String.make (1 + (id mod 13)) 'k' ^ string_of_int id
      in
      let stop = Sim.now () +. 0.4 in
      Sim.fork_join
        (List.init 8 (fun _ () ->
             while Sim.now () < stop do
               match Rng.int rng 10 with
               | 0 -> Store.del st (key ())
               | n when n < 6 -> Store.put st (key ()) (Bytes.make (50 + (20 * n)) (Char.chr (64 + n)))
               | _ -> ( try ignore (Store.get st (key ())) with Store.Corrupt _ -> ())
             done));
      (* Let the compactor settle below its trigger before the recovery. *)
      Sim.delay 0.05;
      let c = Store.counters st in
      let st' = Store.create ~config ~name:"recovered" ~klog ~vlog () in
      Store.recover st';
      let head = Circular_log.head klog and tail = Circular_log.tail klog in
      let bytes = Circular_log.read klog ~loff:head ~len:(tail - head) in
      let log_stats l =
        let s = Circular_log.stats l in
        Printf.sprintf "%d/%d/%d" s.Circular_log.appended s.reclaimed s.live
      in
      Printf.sprintf
        "events=%d gets=%d puts=%d dels=%d runs=%d corrupt=%d salvaged=%d klog=%s vlog=%s \
         objects=%d/%d recovered_corrupt=%d klog_md5=%s"
        (Sim.events_dispatched ()) c.Store.gets c.puts c.dels c.compaction_runs c.corrupt
        c.salvaged (log_stats klog) (log_stats vlog) (Store.objects st) (Store.objects st')
        (Store.counters st').Store.corrupt
        (Digest.to_hex (Digest.bytes bytes)))

let test_compaction_pin () =
  Alcotest.(check string) "compaction pin"
    "events=331081 gets=13693 puts=17365 dels=3408 runs=144 corrupt=0 salvaged=0 \
     klog=12818432/12478976/339456 vlog=2674445/1669741/1004704 objects=3371/3371 \
     recovered_corrupt=0 klog_md5=691d47fdeba0935a3986a8f876a187cb"
    (compaction_pin ())

(* --- store: recovery --- *)

let test_recovery_rebuilds_index () =
  Sim.run (fun () ->
      let dev = instant_dev () in
      let klog = Circular_log.create ~name:"k" ~dev ~dev_id:0 ~base:0 ~size:(1 lsl 20) in
      let vlog = Circular_log.create ~name:"v" ~dev ~dev_id:0 ~base:(1 lsl 20) ~size:(1 lsl 20) in
      let st = Store.create ~config:small_config ~name:"orig" ~klog ~vlog () in
      for i = 0 to 49 do
        Store.put st (Leed_workload.Workload.key_of_id i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      Store.del st (Leed_workload.Workload.key_of_id 7);
      (* "Crash": rebuild a fresh store over the same persistent logs (the
         DRAM segment table is lost, log head/tail pointers survive in the
         superblock — here, the log records). *)
      let st' = Store.create ~config:small_config ~name:"recovered" ~klog ~vlog () in
      Store.recover st';
      Alcotest.(check int) "objects recovered" 49 (Store.objects st');
      for i = 0 to 49 do
        let expect = if i = 7 then None else Some (Printf.sprintf "v%d" i) in
        Alcotest.(check (option string)) "recovered value" expect
          (Option.map Bytes.to_string (Store.get st' (Leed_workload.Workload.key_of_id i)))
      done)

(* --- store: property tests against a model --- *)

let store_vs_hashtable =
  QCheck.Test.make ~name:"store behaves like a hashtable under random ops" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (pair (int_bound 30) (option (string_of_size (Gen.int_range 1 24)))))
    (fun ops ->
      Sim.run (fun () ->
          let st = make_store () in
          let model : (string, string) Hashtbl.t = Hashtbl.create 32 in
          let ok = ref true in
          List.iter
            (fun (id, v) ->
              let key = Leed_workload.Workload.key_of_id id in
              match v with
              | Some v when String.length v > 0 ->
                  Store.put st key (Bytes.of_string v);
                  Hashtbl.replace model key v
              | _ ->
                  Store.del st key;
                  Hashtbl.remove model key)
            ops;
          (* Interleave a compaction then re-check everything. *)
          ignore (Store.compact_key_log st);
          ignore (Store.compact_value_log st);
          Hashtbl.iter
            (fun k v ->
              match Store.get st k with
              | Some got when Bytes.to_string got = v -> ()
              | _ -> ok := false)
            model;
          for id = 0 to 30 do
            let k = Leed_workload.Workload.key_of_id id in
            if not (Hashtbl.mem model k) then if Store.get st k <> None then ok := false
          done;
          !ok))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_store"
    [
      ( "circular_log",
        [
          Alcotest.test_case "append/read" `Quick test_log_append_read;
          Alcotest.test_case "wraparound" `Quick test_log_wraparound;
          Alcotest.test_case "full raises" `Quick test_log_full_raises;
          Alcotest.test_case "stale read semantics" `Quick test_log_stale_read_semantics;
          Alcotest.test_case "occupancy accounting" `Quick test_log_occupancy;
        ] );
      ( "codec",
        [
          Alcotest.test_case "bucket roundtrip" `Quick test_bucket_roundtrip;
          Alcotest.test_case "segment bytes" `Quick test_segment_bytes;
          Alcotest.test_case "value entry roundtrip" `Quick test_value_entry_roundtrip;
          Alcotest.test_case "corrupt rejected" `Quick test_corrupt_rejected;
          Alcotest.test_case "segment chaining threshold" `Quick test_segment_split_merge;
          Alcotest.test_case "at most 255 buckets" `Quick test_segment_bucket_limit;
        ] );
      ( "segtbl",
        [
          Alcotest.test_case "lock is a fifo mutex" `Quick test_segtbl_lock_mutex;
          Alcotest.test_case "try_lock" `Quick test_segtbl_trylock;
          Alcotest.test_case "memory budget" `Quick test_segtbl_memory_budget;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/get" `Quick test_store_put_get;
          Alcotest.test_case "value over 1 MiB rejected" `Quick test_store_value_too_large;
          Alcotest.test_case "key over 255 B rejected" `Quick test_store_key_length;
          Alcotest.test_case "overwrite" `Quick test_store_overwrite;
          Alcotest.test_case "delete" `Quick test_store_delete;
          Alcotest.test_case "many keys" `Quick test_store_many_keys;
          Alcotest.test_case "nvme access counts" `Quick test_store_nvme_access_counts;
          Alcotest.test_case "index memory < 0.5B/obj" `Quick test_store_index_memory;
          Alcotest.test_case "concurrent puts, same segment" `Quick test_concurrent_puts_same_segment;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "key log reclaims" `Quick test_key_log_compaction_reclaims;
          Alcotest.test_case "value log reclaims" `Quick test_value_log_compaction_reclaims;
          Alcotest.test_case "tombstones purged" `Quick test_compaction_purges_tombstones;
          Alcotest.test_case "background compactor sustains writes" `Quick
            test_background_compactor_sustains_writes;
          Alcotest.test_case "key-log round reads its window once" `Quick
            test_key_round_reads_window_once;
          Alcotest.test_case "both compactors pinned on a squeezed store" `Quick
            test_compaction_pin;
        ] );
      ("recovery", [ Alcotest.test_case "rebuilds index" `Quick test_recovery_rebuilds_index ]);
      qsuite "properties" [ log_roundtrip_prop; codec_bucket_prop; store_vs_hashtable ];
    ]
