(* Tests for the runtime invariant sanitizer: every check must trip on a
   purpose-built violating scenario, stay silent on healthy runs, and be
   inert when disabled. *)

open Leed_sim
open Leed_blockdev
open Leed_core

let key = Leed_workload.Workload.key_of_id

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* Run [f] and require it to raise a Violation naming [needle]. *)
let check_trips name needle f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invariant.Violation (%s)" name needle
  | exception Invariant.Violation msg ->
      if not (contains msg needle) then
        Alcotest.failf "%s: Violation %S does not name %S" name msg needle

(* --- switch plumbing --- *)

let test_switch_scoped_to_run () =
  let before = Invariant.active () in
  Sim.run ~checks:true (fun () ->
      Alcotest.(check bool) "on inside ~checks:true" true (Invariant.active ());
      (* nested runs inherit, then give back *)
      Sim.run ~checks:false (fun () ->
          Alcotest.(check bool) "nested off" false (Invariant.active ()));
      Alcotest.(check bool) "restored after nested" true (Invariant.active ()));
  Alcotest.(check bool) "restored after run" before (Invariant.active ());
  Sim.run (fun () ->
      Alcotest.(check bool) "inherited when omitted" before (Invariant.active ()))

let test_switch_restored_on_violation () =
  let before = Invariant.active () in
  check_trips "restore" "event-time-monotonicity" (fun () ->
      Sim.run ~checks:true (fun () -> Sim.after (-1.) (fun () -> ())));
  Alcotest.(check bool) "restored after escape" before (Invariant.active ())

(* --- event-time monotonicity --- *)

let test_monotonicity_trips () =
  check_trips "past event" "event-time-monotonicity" (fun () ->
      Sim.run ~checks:true (fun () -> Sim.after (-0.001) (fun () -> ())))

let test_monotonicity_nan_trips () =
  check_trips "nan time" "event-time-monotonicity" (fun () ->
      Sim.run ~checks:true (fun () -> Sim.after nan (fun () -> ())))

let test_monotonicity_silent_when_off () =
  Sim.run ~checks:false (fun () -> Sim.after (-1.) (fun () -> ()))

(* --- blockdev queue depth --- *)

let test_queue_depth_trips () =
  check_trips "queue depth" "blockdev-queue-depth" (fun () ->
      Sim.run ~checks:true (fun () ->
          let d = Blockdev.create ~max_queue:4 Blockdev.dct983 in
          for _ = 1 to 8 do
            Sim.spawn (fun () -> ignore (Blockdev.read d ~off:0 ~len:4096))
          done;
          Sim.delay 1.))

let test_queue_depth_within_bound () =
  Sim.run ~checks:true (fun () ->
      let d = Blockdev.create ~max_queue:8 Blockdev.dct983 in
      for _ = 1 to 8 do
        Sim.spawn (fun () -> ignore (Blockdev.read d ~off:0 ~len:4096))
      done;
      Sim.delay 1.;
      Alcotest.(check int) "drained" 0 (Blockdev.inflight d))

let test_queue_depth_silent_when_off () =
  Sim.run ~checks:false (fun () ->
      let d = Blockdev.create ~max_queue:1 Blockdev.dct983 in
      for _ = 1 to 4 do
        Sim.spawn (fun () -> ignore (Blockdev.read d ~off:0 ~len:4096))
      done;
      Sim.delay 1.)

(* --- token conservation ledger --- *)

let test_tokens_overconsume_trips () =
  check_trips "overconsume" "token-conservation" (fun () ->
      Sim.run ~checks:true (fun () ->
          let a = Invariant.Tokens.create ~name:"acct" in
          Invariant.Tokens.issue a ~time:(Sim.now ()) 2;
          Invariant.Tokens.consume a ~time:(Sim.now ()) 3))

let test_tokens_balance_cross_check_trips () =
  check_trips "balance" "token-conservation" (fun () ->
      Sim.run ~checks:true (fun () ->
          let a = Invariant.Tokens.create ~name:"acct" in
          Invariant.Tokens.issue a ~time:(Sim.now ()) 3;
          Invariant.Tokens.consume a ~time:(Sim.now ()) 1;
          (* engine claims a different outstanding balance than the ledger *)
          Invariant.Tokens.check_balance a ~time:(Sim.now ()) ~expect_outstanding:1))

let test_tokens_inert_when_off () =
  Sim.run ~checks:false (fun () ->
      let a = Invariant.Tokens.create ~name:"acct" in
      Invariant.Tokens.issue a ~time:(Sim.now ()) 2;
      Invariant.Tokens.consume a ~time:(Sim.now ()) 5;
      Alcotest.(check int) "ledger untouched" 0 (Invariant.Tokens.outstanding a))

(* The real engine, sanitized: its token flow must satisfy the ledger. *)

let store_config =
  { Store.default_config with Store.nsegments = 512; compaction_window = 64 * 1024 }

let engine_config =
  { Engine.default_config with Engine.store_config = store_config; partitions_per_ssd = 1 }

let quiet_platform =
  {
    Leed_platform.Platform.smartnic_jbof with
    Leed_platform.Platform.ssd =
      { Leed_platform.Platform.smartnic_jbof.Leed_platform.Platform.ssd with Blockdev.jitter = 0. };
  }

let test_engine_token_flow_clean () =
  Sim.run ~checks:true (fun () ->
      let e = Engine.create ~config:engine_config quiet_platform in
      Engine.start e;
      for i = 1 to 64 do
        match Engine.submit e ~pid:0 (Engine.Put (key i, Bytes.of_string "v")) with
        | Ok () -> ()
        | _ -> Alcotest.fail "put should be Done"
      done;
      for i = 1 to 64 do
        match Engine.submit e ~pid:0 (Engine.Get (key i)) with
        | Ok (Some _) -> ()
        | _ -> Alcotest.fail "expected Found"
      done)

(* --- segment chain order --- *)

(* Plant a malformed segment (two buckets with swapped chain positions)
   directly in the key log and point the segment table at it. *)
let plant_bad_segment () =
  let dev = Blockdev.create (Blockdev.instant ()) in
  let klog = Circular_log.create ~name:"k" ~dev ~dev_id:0 ~base:0 ~size:(1 lsl 20) in
  let vlog = Circular_log.create ~name:"v" ~dev ~dev_id:0 ~base:(1 lsl 20) ~size:(1 lsl 20) in
  let config = { Store.default_config with Store.nsegments = 64 } in
  let st = Store.create ~config ~name:"bad" ~klog ~vlog () in
  let k = "victim" in
  let seg = Codec.segment_of_key ~nsegments:64 k in
  let bucket pos =
    { Codec.bindex = 0; chain_len = 2; chain_pos = pos; seg_id = seg; log_head = 0;
      log_tail = 0; items = [] }
  in
  let bytes = Bytes.cat (Codec.encode_bucket (bucket 1)) (Codec.encode_bucket (bucket 0)) in
  let off = Circular_log.append klog bytes in
  Segtbl.update (Store.segtbl st) ~seg ~dev:(Store.home_dev st) ~off ~chain_len:2;
  (st, k)

let test_segment_chain_trips () =
  check_trips "chain order" "segment-chain-order" (fun () ->
      Sim.run ~checks:true (fun () ->
          let st, k = plant_bad_segment () in
          (* DEL reads the segment under the lock, where torn snapshots are
             impossible — the sanitizer must reject the bad chain. *)
          Store.del st k))

let test_segment_chain_lockless_get_tolerated () =
  (* Lockless GETs may legitimately observe torn segments and retry, so
     they are exempt from the chain-order check by design. *)
  Sim.run ~checks:true (fun () ->
      let st, k = plant_bad_segment () in
      Alcotest.(check (option string)) "get sees no item" None
        (Option.map Bytes.to_string (Store.get st k)))

(* --- CRRS replication chain --- *)

let mk_cluster () =
  let config =
    {
      Cluster.default_config with
      Cluster.nnodes = 3;
      r = 3;
      engine_config;
      platform = quiet_platform;
    }
  in
  Cluster.create ~config ()

let test_replica_agreement () =
  Sim.run ~checks:true (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      Client.put c (key 3) (Bytes.of_string "agreed");
      (* Healthy chain: structural check and replica sweep both pass. *)
      Cluster.check_chain_order cl (key 3);
      Cluster.check_replica_agreement cl (key 3);
      (* Diverge the chain tail behind the protocol's back. *)
      let ring = Control.ring (Cluster.control cl) in
      match List.rev (Ring.chain ring ~r:3 (key 3)) with
      | [] -> Alcotest.fail "empty chain"
      | tail :: _ -> (
          let n = Cluster.node cl tail.Ring.owner.Ring.node in
          (match
             Engine.submit (Node.engine n) ~pid:tail.Ring.owner.Ring.vidx
               (Engine.Put (key 3, Bytes.of_string "diverged"))
           with
          | Ok () -> ()
          | _ -> Alcotest.fail "direct put failed");
          match Cluster.check_replica_agreement cl (key 3) with
          | () -> Alcotest.fail "expected divergence to trip"
          | exception Invariant.Violation msg ->
              Alcotest.(check bool) "names invariant" true (contains msg "crrs-chain-order")))

let () =
  Alcotest.run "invariant"
    [
      ( "switch",
        [
          Alcotest.test_case "scoped to run" `Quick test_switch_scoped_to_run;
          Alcotest.test_case "restored on violation" `Quick test_switch_restored_on_violation;
        ] );
      ( "monotonicity",
        [
          Alcotest.test_case "past event trips" `Quick test_monotonicity_trips;
          Alcotest.test_case "nan trips" `Quick test_monotonicity_nan_trips;
          Alcotest.test_case "silent when off" `Quick test_monotonicity_silent_when_off;
        ] );
      ( "queue depth",
        [
          Alcotest.test_case "overflow trips" `Quick test_queue_depth_trips;
          Alcotest.test_case "within bound" `Quick test_queue_depth_within_bound;
          Alcotest.test_case "silent when off" `Quick test_queue_depth_silent_when_off;
        ] );
      ( "tokens",
        [
          Alcotest.test_case "overconsume trips" `Quick test_tokens_overconsume_trips;
          Alcotest.test_case "balance cross-check trips" `Quick test_tokens_balance_cross_check_trips;
          Alcotest.test_case "inert when off" `Quick test_tokens_inert_when_off;
          Alcotest.test_case "engine flow clean" `Quick test_engine_token_flow_clean;
        ] );
      ( "segment chain",
        [
          Alcotest.test_case "locked read trips" `Quick test_segment_chain_trips;
          Alcotest.test_case "lockless get tolerated" `Quick test_segment_chain_lockless_get_tolerated;
        ] );
      ( "replication",
        [ Alcotest.test_case "replica agreement" `Quick test_replica_agreement ] );
    ]
