(* Tests for end-to-end data integrity: CRC-checked codecs, seeded
   bit-rot injection, checksum failures surfacing as Corrupt (never as a
   stray exception), CRRS read-repair, scrub escalation to COPY, and
   recovery over a rotted key log. *)

open Leed_sim
open Leed_blockdev
open Leed_core

let instant_dev () = Blockdev.create (Blockdev.instant ())

let small_config =
  { Store.default_config with Store.nsegments = 64; compaction_window = 16 * 1024 }

let make_store () =
  let dev = instant_dev () in
  let klog = Circular_log.create ~name:"k" ~dev ~dev_id:0 ~base:0 ~size:(1 lsl 20) in
  let vlog = Circular_log.create ~name:"v" ~dev ~dev_id:0 ~base:(1 lsl 20) ~size:(1 lsl 20) in
  (dev, klog, vlog, Store.create ~config:small_config ~name:"rot" ~klog ~vlog ())

let key_of = Leed_workload.Workload.key_of_id

(* --- codec: every byte of every on-flash entry is checksummed --- *)

let test_bucket_crc () =
  let items =
    List.init 5 (fun i ->
        { Codec.key = Printf.sprintf "key-%02d" i; vlen = 100 + i; voff = 1000 * i; vdev = 0 })
  in
  let b =
    {
      Codec.bindex = 0xABCD;
      chain_len = 1;
      chain_pos = 0;
      seg_id = 7;
      log_head = 0;
      log_tail = 4096;
      items;
    }
  in
  let buf = Codec.encode_bucket b in
  let b' = Codec.decode_bucket buf in
  Alcotest.(check int) "items round-trip" 5 (List.length b'.Codec.items);
  Alcotest.(check (list string))
    "keys round-trip"
    (List.map (fun (it : Codec.item) -> it.Codec.key) b.Codec.items)
    (List.map (fun (it : Codec.item) -> it.Codec.key) b'.Codec.items);
  (* A single bit flip anywhere in the 512-B bucket — header, CRC field,
     items, or padding — must surface as Corrupt, never as parsed
     garbage. *)
  for off = 0 to Codec.bucket_size - 1 do
    let copy = Bytes.copy buf in
    Bytes.set_uint8 copy off (Bytes.get_uint8 copy off lxor 0x10);
    match Codec.decode_bucket copy with
    | _ -> Alcotest.failf "bit flip at byte %d went undetected" off
    | exception Codec.Corrupt _ -> ()
  done

let test_value_entry_crc () =
  let ve = { Codec.ve_seg = 3; ve_key = "some-key"; ve_value = Bytes.make 200 'q' } in
  let buf = Codec.encode_value_entry ve in
  let ve' = Codec.decode_value_entry ~off:0 ~len:(Bytes.length buf) buf in
  Alcotest.(check string) "key round-trip" ve.Codec.ve_key ve'.Codec.ve_key;
  Alcotest.(check bool) "value round-trip" true (Bytes.equal ve.Codec.ve_value ve'.Codec.ve_value);
  (* Decode buffers are often longer than the entry (readers over-read);
     the CRC must cover exactly the entry, not the slack. *)
  let padded = Bytes.cat buf (Bytes.make 64 '\255') in
  ignore (Codec.decode_value_entry ~off:0 ~len:(Bytes.length padded) padded);
  for off = 0 to Bytes.length buf - 1 do
    let copy = Bytes.copy buf in
    Bytes.set_uint8 copy off (Bytes.get_uint8 copy off lxor 0x04);
    match Codec.decode_value_entry ~off:0 ~len:(Bytes.length copy) copy with
    | _ -> Alcotest.failf "bit flip at byte %d went undetected" off
    | exception Codec.Corrupt _ -> ()
  done

(* A device view hands the decoder a whole 64 KiB chunk with the entry
   somewhere inside it: decoding at an offset must see exactly the
   requested range, and a rotted length must be judged against that
   range, never against the bytes the chunk happens to hold beyond it. *)
let test_value_entry_at_offset () =
  let ve = { Codec.ve_seg = 9; ve_key = "offset-key"; ve_value = Bytes.make 300 'o' } in
  let entry = Codec.encode_value_entry ve in
  let len = Bytes.length entry and at = 4093 in
  let chunk () =
    let c = Bytes.make (at + len + 1024) '\xa5' in
    Bytes.blit entry 0 c at len;
    c
  in
  let ve' = Codec.decode_value_entry ~off:at ~len (chunk ()) in
  Alcotest.(check int) "seg" 9 ve'.Codec.ve_seg;
  Alcotest.(check string) "key" ve.Codec.ve_key ve'.Codec.ve_key;
  Alcotest.(check bool) "value" true (Bytes.equal ve.Codec.ve_value ve'.Codec.ve_value);
  for i = 0 to len - 1 do
    let c = chunk () in
    Bytes.set_uint8 c (at + i) (Bytes.get_uint8 c (at + i) lxor 0x20);
    match Codec.decode_value_entry ~off:at ~len c with
    | _ -> Alcotest.failf "bit flip at entry byte %d went undetected" i
    | exception Codec.Corrupt _ -> ()
  done;
  (* vlen is the u32 at header byte 2; grow it past the requested range
     while the chunk still has bytes to spare. *)
  let c = chunk () in
  Bytes.set_int32_le c (at + 2) (Int32.of_int (Bytes.length ve.Codec.ve_value + 8));
  match Codec.decode_value_entry ~off:at ~len c with
  | _ -> Alcotest.fail "rotted vlen past the range went undetected"
  | exception Codec.Corrupt msg -> Alcotest.(check string) "reason" "truncated value entry" msg

(* --- blockdev: seeded rot is deterministic --- *)

let test_bitflip_determinism () =
  Sim.run (fun () ->
      let image seed =
        let d = instant_dev () in
        Blockdev.write_seq d ~off:0 (Bytes.init 8192 (fun i -> Char.chr (i land 0xff)));
        let n = Blockdev.corrupt_resident d ~rng:(Rng.create seed) ~flips:32 in
        Alcotest.(check int) "every flip landed" 32 n;
        Alcotest.(check int) "flips counted" 32 (Blockdev.stats d).Blockdev.bits_flipped;
        Blockdev.read d ~off:0 ~len:8192
      in
      let a = image 11 and b = image 11 and c = image 12 in
      Alcotest.(check bool) "same seed, identical rot" true (Bytes.equal a b);
      Alcotest.(check bool) "different seed diverges" false (Bytes.equal a c))

(* --- store: checksum failures surface as Corrupt, and the scrubber
   sees them --- *)

let test_get_surfaces_corrupt () =
  Sim.run (fun () ->
      let dev, _, vlog, st = make_store () in
      for i = 0 to 29 do
        Store.put st (key_of i) (Bytes.make 64 'z')
      done;
      (* Rot the whole used value-log region: every value entry takes
         several flips, so reads cannot limp through on retries. *)
      let used = Circular_log.tail vlog in
      Blockdev.corrupt_range dev ~rng:(Rng.create 5) ~off:(Circular_log.phys vlog 0) ~len:used
        ~flips:(used / 16);
      let corrupt = ref 0 in
      for i = 0 to 29 do
        (* The retry loop (for torn reads) must exhaust into a counted
           Corrupt — never leak Invalid_argument from a rotted length
           field. *)
        match Store.get st (key_of i) with
        | _ -> ()
        | exception Store.Corrupt _ -> incr corrupt
      done;
      Alcotest.(check bool) "some gets surfaced Corrupt" true (!corrupt > 0);
      Alcotest.(check bool)
        "corrupt reads counted" true
        ((Store.counters st).Store.corrupt >= !corrupt);
      (* The scrubber's strict walk sees the same rot, key by key. *)
      let flagged = ref 0 in
      for seg = 0 to Store.nsegments st - 1 do
        match Store.scrub_segment st seg with
        | Store.Scrub_repair keys -> flagged := !flagged + List.length keys
        | Store.Scrub_bad_segment | Store.Scrub_clean _ -> ()
      done;
      Alcotest.(check bool) "scrub flags rotted values" true (!flagged > 0))

(* --- store: recovery stops at a CRC-bad key-log frame --- *)

let test_recovery_stops_at_rot () =
  Sim.run (fun () ->
      let dev, klog, vlog, st = make_store () in
      for i = 0 to 48 do
        Store.put st (key_of i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      (* Flip one bit inside the last appended key-log frame: the frame's
         length field can no longer be trusted, so the recovery scan must
         stop there (the torn-tail rule) instead of misparsing onward. *)
      let tail = Circular_log.committed_tail klog in
      Blockdev.flip_bit dev
        ~off:(Circular_log.phys klog (tail - Codec.bucket_size) + 100)
        ~bit:3;
      let st' = Store.create ~config:small_config ~name:"recovered" ~klog ~vlog () in
      Store.recover st';
      Alcotest.(check bool)
        "rot counted during replay" true
        ((Store.counters st').Store.corrupt >= 1);
      Alcotest.(check bool) "index bounded by writes" true (Store.objects st' <= 49);
      (* Keys must still read without an exception (possibly stale or
         missing for the truncated segment — COPY repair's job). *)
      for i = 0 to 48 do
        match Store.get st' (key_of i) with
        | _ -> ()
        | exception Store.Corrupt _ -> ()
      done)

(* --- compaction over rotted frames --- *)

(* The live items of [st] as the key log holds them, read around the
   store so a test can see where each value lies. *)
let live_items st =
  List.concat_map
    (fun seg ->
      let e = Segtbl.entry (Store.segtbl st) seg in
      if not (Segtbl.is_materialised e) then []
      else
        let n = Segtbl.chain_len e in
        let buf = Circular_log.read (Store.klog st) ~loff:(Segtbl.off e) ~len:(n * Codec.bucket_size) in
        List.concat_map
          (fun i -> (Codec.decode_bucket ~off:(i * Codec.bucket_size) buf).Codec.items)
          (List.init n Fun.id)
        |> List.filter (fun it -> not (Codec.is_tombstone it)))
    (List.init (Store.nsegments st) Fun.id)

(* Twenty 40-byte value entries, one bit of the first flipped, then 200
   value-log compaction rounds. Returns the head and the live values
   behind it; checks every key reads back or surfaces [Corrupt]. *)
let compact_rotted_value_log ~byte ~bit =
  Sim.run (fun () ->
      let dev, _, vlog, st = make_store () in
      for i = 0 to 19 do
        Store.put st (key_of i) (Bytes.of_string (Printf.sprintf "v%03d" i))
      done;
      Blockdev.flip_bit dev ~off:(Circular_log.phys vlog 0 + byte) ~bit;
      for _ = 1 to 200 do
        ignore (Store.compact_value_log st)
      done;
      (match Store.get st (key_of 0) with
      | _ -> Alcotest.fail "the rotted value read back"
      | exception Store.Corrupt _ -> ());
      for i = 1 to 19 do
        Alcotest.(check (option string)) "intact value" (Some (Printf.sprintf "v%03d" i))
          (Option.map Bytes.to_string (Store.get st (key_of i)))
      done;
      let head = Circular_log.head vlog in
      (head, List.length (List.filter (fun it -> it.Codec.voff < head) (live_items st))))

let test_value_compaction_header_rot () =
  (* Bit 0 of byte 3 adds 256 to the entry's vlen: trusting it would move
     the head over the next seven live values without relocating them. *)
  let head, behind = compact_rotted_value_log ~byte:3 ~bit:0 in
  Alcotest.(check int) "no live value behind the head" 0 behind;
  Alcotest.(check int) "head stops at the rotted entry" 0 head

let test_value_compaction_payload_rot () =
  (* A payload flip leaves the length intact (the next entry verifies):
     the head keeps moving, the rotted value travels as-is for
     read-repair. *)
  let head, behind = compact_rotted_value_log ~byte:37 ~bit:0 in
  Alcotest.(check int) "no live value behind the head" 0 behind;
  Alcotest.(check bool) "head advanced" true (head > 0)

(* Flip bit 2 of the chain_len byte of the key log's first frame after
   [rounds] PUTs of each of 20 keys, then run 200 key-log compaction
   rounds. Returns the head, the corrupt count and the first key's GET. *)
let compact_rotted_key_log ~rounds =
  Sim.run (fun () ->
      let dev, klog, _, st = make_store () in
      for r = 1 to rounds do
        for i = 0 to 19 do
          Store.put st (key_of i) (Bytes.of_string (Printf.sprintf "r%d" r))
        done
      done;
      Blockdev.flip_bit dev ~off:(Circular_log.phys klog 0 + 1) ~bit:2;
      for _ = 1 to 200 do
        ignore (Store.compact_key_log st)
      done;
      for i = 1 to 19 do
        Alcotest.(check (option string)) "intact key" (Some (Printf.sprintf "r%d" rounds))
          (Option.map Bytes.to_string (Store.get st (key_of i)))
      done;
      let first = match Store.get st (key_of 0) with v -> Ok v | exception Store.Corrupt _ -> Error () in
      (Circular_log.head klog, (Store.counters st).Store.corrupt, first))

let test_key_compaction_stale_rot () =
  (* The first frame is a stale copy of key 0's segment: nothing live is
     in it, so the walk steps past it to the next verified frame. *)
  let head, corrupt, first = compact_rotted_key_log ~rounds:20 in
  Alcotest.(check bool) "head passed the rot" true (head > 0);
  Alcotest.(check int) "skip counted once" 1 corrupt;
  Alcotest.(check bool) "key 0 intact" true (first = Ok (Some (Bytes.of_string "r20")))

let test_key_compaction_live_rot () =
  (* Written once, the first frame is key 0's only copy: the window stops
     at it, since skipping would drop a live segment. *)
  let head, corrupt, first = compact_rotted_key_log ~rounds:1 in
  Alcotest.(check int) "head stays at the rot" 0 head;
  Alcotest.(check bool) "rot counted" true (corrupt >= 1);
  Alcotest.(check bool) "key 0 surfaces Corrupt" true (first = Error ())

(* --- cluster: a corrupt read heals transparently from the chain --- *)

let test_read_repair_heals_replica () =
  Sim.run (fun () ->
      let config = { Cluster.default_config with Cluster.nnodes = 3 } in
      let cluster = Cluster.create ~config () in
      let client = Cluster.client cluster in
      let key = "repair-me" in
      let value = Bytes.make 200 'R' in
      Client.put client key value;
      let control = Cluster.control cluster in
      let chain = Ring.chain (Control.ring control) ~r:config.Cluster.r key in
      let entry = List.hd chain in
      let victim = Control.node control entry.Ring.owner.Ring.node in
      let pid = entry.Ring.owner.Ring.vidx in
      let st = Engine.store (Engine.partitions (Node.engine victim)).(pid) in
      (* Rot the key's segment frame on the head replica, deterministically:
         the segment table knows exactly where it lives on flash. *)
      let seg = Codec.segment_of_key ~nsegments:(Store.nsegments st) key in
      let e = Segtbl.entry (Store.segtbl st) seg in
      let devs = Engine.devices (Node.engine victim) in
      Blockdev.flip_bit devs.(Segtbl.dev e)
        ~off:(Circular_log.phys (Store.klog st) (Segtbl.off e) + 50)
        ~bit:2;
      (match Engine.submit (Node.engine victim) ~pid (Engine.Get key) with
      | Error Engine.Corrupt -> ()
      | _ -> Alcotest.fail "rotted frame did not surface as Corrupt");
      (* A read through the node's dispatcher must heal from a CRRS
         replica and answer with the verified bytes. *)
      (match
         Node.handle victim
           (Messages.Get
              { vn = entry.Ring.owner; key; shipped = false; deadline = 0.;
                version = Ring.version (Node.ring victim) })
       with
      | Messages.Value { value = Some v; _ } ->
          Alcotest.(check bool) "repaired read returns the value" true (Bytes.equal v value)
      | _ -> Alcotest.fail "read through the corrupt replica was not served");
      Alcotest.(check bool)
        "read-repair counted" true
        ((Node.stats victim).Node.n_read_repairs >= 1);
      (* The heal rewrote the entry locally: the replica now serves the
         key straight from its own store. *)
      match Engine.submit (Node.engine victim) ~pid (Engine.Get key) with
      | Ok (Some v) -> Alcotest.(check bool) "healed locally" true (Bytes.equal v value)
      | _ -> Alcotest.fail "replica still corrupt after read-repair")

(* --- cluster: unreadable segment frames escalate to an arc re-COPY --- *)

let test_scrub_escalates_to_copy () =
  Sim.run (fun () ->
      let config = { Cluster.default_config with Cluster.nnodes = 3 } in
      let cluster = Cluster.create ~config () in
      let client = Cluster.client cluster in
      let nkeys = 60 in
      for i = 0 to nkeys - 1 do
        Client.put client (key_of i) (Bytes.make 128 (Char.chr (65 + (i mod 26))))
      done;
      (* Rot the frame of every materialised segment on one node: nothing
         of those segments is locally repairable (their item lists are
         gone), so the scrubber must escalate to the control plane's COPY
         path and rebuild the arcs from the surviving chain members. *)
      let victim = List.hd (Cluster.nodes cluster) in
      let devs = Engine.devices (Node.engine victim) in
      Array.iter
        (fun p ->
          let st = Engine.store p in
          for seg = 0 to Store.nsegments st - 1 do
            let e = Segtbl.entry (Store.segtbl st) seg in
            if Segtbl.is_materialised e then
              Blockdev.flip_bit devs.(Segtbl.dev e)
                ~off:(Circular_log.phys (Store.klog st) (Segtbl.off e) + 20)
                ~bit:1
          done)
        (Engine.partitions (Node.engine victim));
      let before = Scrub.verify_all cluster in
      Alcotest.(check bool) "rotted frames visible" true (before.Scrub.bad_segments > 0);
      let rep = Scrub.run_once cluster in
      Alcotest.(check bool) "vnodes escalated" true (rep.Scrub.escalated_vnodes > 0);
      Alcotest.(check bool) "arcs re-copied" true (rep.Scrub.recopied_pairs > 0);
      let after = Scrub.verify_all cluster in
      Alcotest.(check bool) "checksum-clean after heal" true (Scrub.verify_clean after);
      (* Every key reads back correct bytes through the normal path. *)
      for i = 0 to nkeys - 1 do
        match Client.get client (key_of i) with
        | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "key %d intact" i)
              true
              (Bytes.equal v (Bytes.make 128 (Char.chr (65 + (i mod 26)))))
        | None -> Alcotest.failf "key %d lost after scrub repair" i
      done)

let () =
  Alcotest.run "leed_integrity"
    [
      ( "codec",
        [
          Alcotest.test_case "bucket CRC catches every bit flip" `Quick test_bucket_crc;
          Alcotest.test_case "value entry decodes exactly at an offset" `Quick
            test_value_entry_at_offset;
          Alcotest.test_case "value entry CRC catches every bit flip" `Quick
            test_value_entry_crc;
        ] );
      ( "blockdev",
        [ Alcotest.test_case "seeded bit-rot is deterministic" `Quick test_bitflip_determinism ] );
      ( "store",
        [
          Alcotest.test_case "get surfaces Corrupt, scrub flags rot" `Quick
            test_get_surfaces_corrupt;
          Alcotest.test_case "recovery stops at a rotted frame" `Quick
            test_recovery_stops_at_rot;
          Alcotest.test_case "value compaction stops at a rotted length" `Quick
            test_value_compaction_header_rot;
          Alcotest.test_case "value compaction moves past payload rot" `Quick
            test_value_compaction_payload_rot;
          Alcotest.test_case "key compaction skips a rotted stale frame" `Quick
            test_key_compaction_stale_rot;
          Alcotest.test_case "key compaction stops at a rotted live frame" `Quick
            test_key_compaction_live_rot;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "read-repair heals a rotted replica" `Quick
            test_read_repair_heals_replica;
          Alcotest.test_case "scrub escalates dead frames to COPY" `Quick
            test_scrub_escalates_to_copy;
        ] );
    ]
