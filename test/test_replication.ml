(* Tests for the replication seam: tag framing, the per-vnode protocol
   state (ABD gate, dirty and fence nesting), the ABD quorum protocol
   end to end (basic ops, minority-crash availability, read write-back
   repair of a lagging replica), and CRRS integrity read-repair's
   tail-first fallback order when the tail is partitioned away. *)

open Leed_sim
open Leed_blockdev
open Leed_netsim
open Leed_core
module R = Replication

(* --- tag framing: round trip, tombstones, raw pre-protocol bytes --- *)

let test_tag_frame_roundtrip () =
  let tag = { R.Tag.ts = 42; writer = 7 } in
  let payload = Bytes.of_string "hello, quorum" in
  (match R.Tag.unframe (R.Tag.frame ~tag (Some payload)) with
  | Some (t, Some p) ->
      Alcotest.(check int) "ts survives" 42 t.R.Tag.ts;
      Alcotest.(check int) "writer survives" 7 t.R.Tag.writer;
      Alcotest.(check bool) "payload survives" true (Bytes.equal p payload)
  | _ -> Alcotest.fail "framed value did not round-trip");
  (match R.Tag.unframe (R.Tag.frame ~tag None) with
  | Some (t, None) -> Alcotest.(check int) "tombstone keeps its tag" 42 t.R.Tag.ts
  | _ -> Alcotest.fail "tombstone did not round-trip");
  (* Raw bytes that never went through the protocol — including strings
     short enough to not even hold a header — read as unframed. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "raw %S is unframed" s)
        true
        (R.Tag.unframe (Bytes.of_string s) = None))
    [ ""; "x"; "hello, quorum"; String.make R.Tag.header_len 'q' ]

let test_tag_frame_overflow () =
  (* A tag past the fixed-width header fields must fail loudly at frame
     time: a silent overflow would make [unframe] read the value as
     tag-zero raw bytes, demoting the newest write below every framed
     one. *)
  let t a b = { R.Tag.ts = a; writer = b } in
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Printf.sprintf "tag (%d,%d) rejected" tag.R.Tag.ts tag.R.Tag.writer)
        true
        (match R.Tag.frame ~tag (Some (Bytes.of_string "v")) with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ t 1_000_000_000_000 0; t (-1) 0; t 1 1_000_000_000; t 1 (-1) ];
  (* the widest representable tag still round-trips *)
  match R.Tag.unframe (R.Tag.frame ~tag:(t 999_999_999_999 999_999_999) (Some Bytes.empty)) with
  | Some (tg, Some _) ->
      Alcotest.(check int) "max ts survives" 999_999_999_999 tg.R.Tag.ts;
      Alcotest.(check int) "max writer survives" 999_999_999 tg.R.Tag.writer
  | _ -> Alcotest.fail "maximal tag did not round-trip"

let test_tag_order () =
  let t a b = { R.Tag.ts = a; writer = b } in
  Alcotest.(check bool) "ts dominates" true (R.Tag.compare (t 2 0) (t 1 9) > 0);
  Alcotest.(check bool) "writer breaks ties" true (R.Tag.compare (t 1 2) (t 1 1) > 0);
  Alcotest.(check bool) "zero is smallest" true (R.Tag.compare R.Tag.zero (t 1 0) < 0);
  Alcotest.(check int) "equal tags" 0 (R.Tag.compare (t 3 4) (t 3 4))

(* --- per-vnode protocol state: the ABD gate, dirty and fence nesting --- *)

module V = R.Vstate

let tag_opt = Alcotest.(option (pair int int))
let gate vs key = Option.map R.Tag.pair (V.tag_get vs key)

let test_vstate_tag_set_raises_only () =
  let t a b = { R.Tag.ts = a; writer = b } in
  let vs = V.create () in
  V.tag_set vs "k" (t 5 2);
  Alcotest.check tag_opt "first set installs" (Some (5, 2)) (gate vs "k");
  V.tag_set vs "k" (t 4 9);
  Alcotest.check tag_opt "lower ts is ignored" (Some (5, 2)) (gate vs "k");
  V.tag_set vs "k" (t 5 1);
  Alcotest.check tag_opt "lower writer is ignored" (Some (5, 2)) (gate vs "k");
  V.tag_set vs "k" (t 5 3);
  Alcotest.check tag_opt "writer tie-break raises" (Some (5, 3)) (gate vs "k");
  V.tag_set vs "k" (t 6 0);
  Alcotest.check tag_opt "higher ts raises" (Some (6, 0)) (gate vs "k");
  Alcotest.check tag_opt "other keys untouched" None (gate vs "j")

let test_vstate_tag_rollback () =
  let t a b = { R.Tag.ts = a; writer = b } in
  let vs = V.create () in
  (* Undo a speculative advance: the gate still holds the tag, so [prev]
     comes back. *)
  V.tag_set vs "k" (t 1 0);
  V.tag_set vs "k" (t 2 0);
  V.tag_rollback vs "k" ~tag:(t 2 0) ~prev:(Some (t 1 0));
  Alcotest.check tag_opt "restores prev" (Some (1, 0)) (gate vs "k");
  (* No earlier tag: rollback removes the key. *)
  V.tag_set vs "n" (t 3 0);
  V.tag_rollback vs "n" ~tag:(t 3 0) ~prev:None;
  Alcotest.check tag_opt "removes when prev is None" None (gate vs "n");
  (* A concurrent higher writer raised the gate after our advance: the
     gate is theirs and the rollback must leave it. *)
  V.tag_set vs "c" (t 2 0);
  V.tag_set vs "c" (t 3 1);
  V.tag_rollback vs "c" ~tag:(t 2 0) ~prev:(Some (t 1 0));
  Alcotest.check tag_opt "keeps a higher writer's gate" (Some (3, 1)) (gate vs "c");
  V.tag_rollback vs "c" ~tag:(t 2 0) ~prev:None;
  Alcotest.check tag_opt "keeps it on a removing rollback too" (Some (3, 1)) (gate vs "c");
  V.tag_rollback vs "absent" ~tag:(t 1 0) ~prev:(Some (t 0 1));
  Alcotest.check tag_opt "no gate, nothing restored" None (gate vs "absent")

let test_vstate_dirty_counts () =
  let vs = V.create () in
  Alcotest.(check bool) "clean at start" false (V.is_dirty vs "k");
  V.dirty_incr vs "k";
  V.dirty_incr vs "k";
  V.dirty_decr vs "k";
  Alcotest.(check bool) "one write still in flight" true (V.is_dirty vs "k");
  V.dirty_decr vs "k";
  Alcotest.(check bool) "clean after the second decrement" false (V.is_dirty vs "k");
  V.dirty_decr vs "k";
  V.dirty_incr vs "k";
  Alcotest.(check bool) "an extra decrement does not go negative" true (V.is_dirty vs "k")

let test_vstate_fence_nesting () =
  let vs = V.create () in
  Alcotest.(check bool) "no fence at start" false (V.fence_active vs);
  V.begin_fence vs;
  V.begin_fence vs;
  V.fence_mark vs "k";
  V.end_fence vs;
  Alcotest.(check bool) "inner exit keeps the fence" true (V.fence_active vs);
  Alcotest.(check bool) "inner exit keeps the marks" true (V.fence_holds vs "k");
  V.end_fence vs;
  Alcotest.(check bool) "last exit lifts the fence" false (V.fence_active vs);
  Alcotest.(check bool) "last exit clears the marks" false (V.fence_holds vs "k");
  V.end_fence vs;
  V.begin_fence vs;
  Alcotest.(check bool) "an unmatched exit does not underflow" true (V.fence_active vs)

let test_vstate_reset () =
  let vs = V.create () in
  V.dirty_incr vs "k";
  V.taint vs "k";
  V.tag_set vs "k" { R.Tag.ts = 1; writer = 1 };
  V.begin_fence vs;
  V.fence_mark vs "k";
  V.reset vs;
  Alcotest.(check bool) "dirty wiped" false (V.is_dirty vs "k");
  Alcotest.(check bool) "taint wiped" false (V.is_tainted vs "k");
  Alcotest.check tag_opt "gate wiped" None (gate vs "k");
  Alcotest.(check bool) "fence lifted" false (V.fence_active vs);
  Alcotest.(check bool) "fence marks wiped" false (V.fence_holds vs "k");
  V.taint vs "k";
  V.untaint vs "k";
  Alcotest.(check bool) "untaint clears" false (V.is_tainted vs "k")

let test_proto_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        "proto string round-trips" true
        (R.proto_of_string (R.proto_to_string p) = p))
    R.all_protos;
  Alcotest.(check bool)
    "unknown proto rejected" true
    (match R.proto_of_string "paxos" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- ABD end to end --- *)

let abd_config =
  {
    Cluster.default_config with
    Cluster.proto = R.Abd;
    (* keep the failure detector out of the way: these tests crash nodes
       on purpose and must not race chain rebuilds, so no probe round runs
       within a test *)
    heartbeat_period = 1000.;
  }

let test_abd_basic_ops () =
  Sim.run (fun () ->
      let cluster = Cluster.create ~config:abd_config () in
      let client = Cluster.client cluster in
      let v1 = Bytes.of_string "first" and v2 = Bytes.of_string "second" in
      Client.put client "k" v1;
      (match Client.get client "k" with
      | Some v -> Alcotest.(check bool) "reads v1" true (Bytes.equal v v1)
      | None -> Alcotest.fail "k missing after put");
      Client.put client "k" v2;
      (match Client.get client "k" with
      | Some v -> Alcotest.(check bool) "overwrite wins" true (Bytes.equal v v2)
      | None -> Alcotest.fail "k missing after overwrite");
      Alcotest.(check bool) "absent key reads None" true (Client.get client "nope" = None);
      Client.del client "k";
      Alcotest.(check bool) "deleted key reads None" true (Client.get client "k" = None);
      Alcotest.(check bool)
        "quorum rounds counted" true
        (Client.quorum_rounds client > 0);
      (* every node applied tagged writes through the seam *)
      List.iter
        (fun n ->
          Alcotest.(check bool)
            "replica applied writes" true
            ((Node.stats n).Node.n_write_applies > 0))
        (Cluster.nodes cluster))

let test_abd_minority_crash () =
  Sim.run (fun () ->
      let cluster = Cluster.create ~config:abd_config () in
      let client = Cluster.client cluster in
      let v1 = Bytes.of_string "before-crash" and v2 = Bytes.of_string "after-crash" in
      Client.put client "k" v1;
      (* With nnodes = r = 3 every chain spans all three nodes: crashing
         any one leaves a majority of two. *)
      Cluster.crash_node cluster 0;
      Client.put client "k" v2;
      (match Client.get client "k" with
      | Some v -> Alcotest.(check bool) "writes and reads ride the majority" true (Bytes.equal v v2)
      | None -> Alcotest.fail "k lost during minority crash"))

let test_abd_writeback_heals_lagging_replica () =
  Sim.run (fun () ->
      let cluster = Cluster.create ~config:abd_config () in
      let client = Cluster.client cluster in
      let key = "lagger" in
      let v1 = Bytes.of_string "old" and v2 = Bytes.of_string "new" in
      Client.put client key v1;
      let control = Cluster.control cluster in
      let chain = Ring.chain (Control.ring control) ~r:3 key in
      let entry = List.hd chain in
      let victim = Control.node control entry.Ring.owner.Ring.node in
      let pid = entry.Ring.owner.Ring.vidx in
      (* The victim's NIC goes dark across an overwrite, so it misses the
         higher tag; flash and DRAM survive. *)
      Node.crash victim;
      Client.put client key v2;
      Node.recover_network victim;
      (* The next client read fans out to all three, sees the victim's
         stale tag, and must write the winning value back before
         answering. *)
      (match Client.get client key with
      | Some v -> Alcotest.(check bool) "read returns the quorum value" true (Bytes.equal v v2)
      | None -> Alcotest.fail "key lost");
      Alcotest.(check bool) "write-back counted" true (Client.writebacks client >= 1);
      (* the victim's own store now holds the framed winning value *)
      match Engine.submit (Node.engine victim) ~pid (Engine.Get key) with
      | Ok (Some raw) -> (
          match R.Tag.unframe raw with
          | Some (_, Some p) ->
              Alcotest.(check bool) "replica healed to v2" true (Bytes.equal p v2)
          | _ -> Alcotest.fail "healed replica holds a malformed frame")
      | _ -> Alcotest.fail "victim still behind after read write-back")

(* A Tag_write whose engine Put fails must not leave the write gate
   claiming a tag the store never received: the replica would then
   idempotently ack a later write-back of the same tag — a phantom
   quorum vote for a value it does not hold, which lets an overlapping
   read majority serve the older value. The retry must instead land the
   value in the store. *)
let test_abd_failed_write_no_phantom_ack () =
  Sim.run (fun () ->
      let cluster = Cluster.create ~config:abd_config () in
      let client = Cluster.client cluster in
      let key = "phantom" in
      Client.put client key (Bytes.of_string "base");
      let control = Cluster.control cluster in
      let chain = Ring.chain (Control.ring control) ~r:3 key in
      let entry = List.hd chain in
      let victim = Control.node control entry.Ring.owner.Ring.node in
      let pid = entry.Ring.owner.Ring.vidx in
      (* Advance virtual time so a small absolute deadline reads as
         already expired: the engine sheds the Put without applying. *)
      Sim.delay 1.0;
      let tag = (1_000, 7) in
      let payload = Bytes.of_string "phantom-v" in
      let framed = R.Tag.frame ~tag:(R.Tag.of_pair tag) (Some payload) in
      let mk deadline =
        Messages.Tag_write
          { vn = entry.Ring.owner; key; value = framed; tag; deadline;
            version = Ring.version (Node.ring victim) }
      in
      (match Node.handle victim (mk 0.5) with
      | Messages.Nack _ -> ()
      | _ -> Alcotest.fail "shed write was acked");
      (* A retry at the SAME tag — a read's write-back round does exactly
         this — must apply the value, not idempotently ack it away. *)
      (match Node.handle victim (mk 0.) with
      | Messages.Ok _ -> ()
      | _ -> Alcotest.fail "retry at the same tag was refused");
      match Engine.submit (Node.engine victim) ~pid (Engine.Get key) with
      | Ok (Some raw) -> (
          match R.Tag.unframe raw with
          | Some (tg, Some p) ->
              Alcotest.(check int) "store holds the acked tag" 1_000 tg.R.Tag.ts;
              Alcotest.(check bool) "store holds the acked value" true (Bytes.equal p payload)
          | _ -> Alcotest.fail "store holds a malformed frame")
      | _ -> Alcotest.fail "store never received the acked value")

(* An ABD membership COPY must merge a quorum of sources: no single
   replica is guaranteed to hold every acked write, so sourcing an arc
   from one (possibly lagging) replica hands the newcomer stale values
   that can later outvote fresh ones on a read quorum. *)
let test_abd_join_copy_merges_quorum () =
  Sim.run (fun () ->
      let cluster = Cluster.create ~config:abd_config () in
      let client = Cluster.client cluster in
      let nkeys = 64 in
      let key i = Printf.sprintf "merge%03d" i in
      let v1 = Bytes.of_string "stale" and v2 = Bytes.of_string "fresh" in
      for i = 0 to nkeys - 1 do
        Client.put client (key i) v1
      done;
      (* One replica sleeps through every overwrite: it keeps the old
         tags while the surviving majority moves on. *)
      let lagger = List.hd (Cluster.nodes cluster) in
      Node.crash lagger;
      for i = 0 to nkeys - 1 do
        Client.put client (key i) v2
      done;
      Node.recover_network lagger;
      (* Join a fourth node. For some arcs the lagger is the old chain's
         tail — the single source the CRRS copy strategy would pick — so
         only a quorum-merged COPY gets the newcomer the acked values. *)
      let newbie, _copied = Cluster.add_node cluster in
      let control = Cluster.control cluster in
      let checked = ref 0 in
      for i = 0 to nkeys - 1 do
        let chain = Ring.chain (Control.ring control) ~r:3 (key i) in
        List.iter
          (fun (e : Ring.entry) ->
            if e.Ring.owner.Ring.node = Node.id newbie then begin
              incr checked;
              match
                Engine.submit (Node.engine newbie) ~pid:e.Ring.owner.Ring.vidx
                  (Engine.Get (key i))
              with
              | Ok (Some raw) -> (
                  match R.Tag.unframe raw with
                  | Some (_, Some p) ->
                      Alcotest.(check bool)
                        (Printf.sprintf "newcomer holds the acked value of %s" (key i))
                        true (Bytes.equal p v2)
                  | _ -> Alcotest.fail "newcomer holds a malformed frame")
              | _ -> Alcotest.fail (Printf.sprintf "newcomer missing copied key %s" (key i))
            end)
          chain
      done;
      Alcotest.(check bool) "some arcs moved to the newcomer" true (!checked > 0))

(* --- CRRS integrity repair: tail first, then the next survivor --- *)

let test_repair_get_tail_fallback () =
  Sim.run (fun () ->
      let config = { Cluster.default_config with Cluster.nnodes = 3 } in
      let cluster = Cluster.create ~config () in
      let client = Cluster.client cluster in
      let key = "fallback" in
      let value = Bytes.make 200 'F' in
      Client.put client key value;
      let control = Cluster.control cluster in
      let chain = Ring.chain (Control.ring control) ~r:config.Cluster.r key in
      let head = List.hd chain in
      let mid = List.nth chain 1 in
      let tail = List.nth chain 2 in
      let victim = Control.node control head.Ring.owner.Ring.node in
      let mid_node = Control.node control mid.Ring.owner.Ring.node in
      let tail_node = Control.node control tail.Ring.owner.Ring.node in
      let pid = head.Ring.owner.Ring.vidx in
      (* Rot the key's segment frame on the head replica (the
         deterministic idiom from the integrity tests). *)
      let st = Engine.store (Engine.partitions (Node.engine victim)).(pid) in
      let seg = Codec.segment_of_key ~nsegments:(Store.nsegments st) key in
      let e = Segtbl.entry (Store.segtbl st) seg in
      let devs = Engine.devices (Node.engine victim) in
      Blockdev.flip_bit devs.(Segtbl.dev e)
        ~off:(Circular_log.phys (Store.klog st) (Segtbl.off e) + 50)
        ~bit:2;
      (* Partition the tail away: drop every message to or from its NIC.
         Read-repair prefers the tail (the one replica guaranteed
         committed), so the fetch must time out there once and move to
         the next survivor — never bounce back to the tail. *)
      let tail_ep = Netsim.id (Netsim.Rpc.endpoint (Node.rpc tail_node)) in
      let rule =
        Netsim.add_fault (Cluster.fabric cluster) (fun src dst ->
            if Netsim.id src = tail_ep || Netsim.id dst = tail_ep then Some Netsim.Drop
            else None)
      in
      (match
         Node.handle victim
           (Messages.Get
              { vn = head.Ring.owner; key; shipped = false; deadline = 0.;
                version = Ring.version (Node.ring victim) })
       with
      | Messages.Value { value = Some v; _ } ->
          Alcotest.(check bool) "repaired read serves the value" true (Bytes.equal v value)
      | _ -> Alcotest.fail "read across the partitioned tail was not served");
      Netsim.remove_fault (Cluster.fabric cluster) rule;
      Alcotest.(check bool)
        "head counted a read-repair" true
        ((Node.stats victim).Node.n_read_repairs >= 1);
      (* the partitioned tail served nothing; the middle survivor served
         exactly one Repair_get — no ping-pong retries *)
      Alcotest.(check int) "tail served no repair" 0 (Node.stats tail_node).Node.n_repair_serves;
      Alcotest.(check int)
        "next survivor served exactly once" 1
        (Node.stats mid_node).Node.n_repair_serves)

let () =
  Alcotest.run "leed_replication"
    [
      ( "tag",
        [
          Alcotest.test_case "frame round-trips values and tombstones" `Quick
            test_tag_frame_roundtrip;
          Alcotest.test_case "frame rejects out-of-range tags" `Quick test_tag_frame_overflow;
          Alcotest.test_case "tag order: ts then writer" `Quick test_tag_order;
          Alcotest.test_case "proto names round-trip" `Quick test_proto_strings;
        ] );
      ( "vstate",
        [
          Alcotest.test_case "tag_set only raises the gate" `Quick test_vstate_tag_set_raises_only;
          Alcotest.test_case "tag_rollback only undoes its own tag" `Quick
            test_vstate_tag_rollback;
          Alcotest.test_case "dirty marks count" `Quick test_vstate_dirty_counts;
          Alcotest.test_case "nested fences lift at the last exit" `Quick
            test_vstate_fence_nesting;
          Alcotest.test_case "reset wipes everything" `Quick test_vstate_reset;
        ] );
      ( "abd",
        [
          Alcotest.test_case "basic ops through quorums" `Quick test_abd_basic_ops;
          Alcotest.test_case "available across a minority crash" `Quick test_abd_minority_crash;
          Alcotest.test_case "read write-back heals a lagging replica" `Quick
            test_abd_writeback_heals_lagging_replica;
          Alcotest.test_case "failed write leaves no phantom ack" `Quick
            test_abd_failed_write_no_phantom_ack;
          Alcotest.test_case "join COPY merges a quorum of sources" `Quick
            test_abd_join_copy_merges_quorum;
        ] );
      ( "crrs",
        [
          Alcotest.test_case "repair falls back past a partitioned tail" `Quick
            test_repair_get_tail_fallback;
        ] );
    ]
