(* Tests for the fault-injection subsystem: the per-layer hooks
   (blockdev degradation/death, netsim link rules), the crash-restart
   recovery path through [Node.restart] / [Control.restart], the
   injector's heal-and-readmit logic, and same-seed chaos determinism. *)

open Leed_sim
open Leed_netsim
open Leed_core
open Leed_fault.Fault

let key = Leed_workload.Workload.key_of_id

(* --- blockdev hooks --- *)

let nojitter = { Leed_blockdev.Blockdev.dct983 with Leed_blockdev.Blockdev.jitter = 0. }

let test_blockdev_degrade_slows_reads () =
  let base, degraded =
    Sim.run (fun () ->
        let d = Leed_blockdev.Blockdev.create nojitter in
        let t0 = Sim.now () in
        let _ = Leed_blockdev.Blockdev.read d ~off:0 ~len:4096 in
        let base = Sim.now () -. t0 in
        Leed_blockdev.Blockdev.set_service_factor d 4.0;
        let t1 = Sim.now () in
        let _ = Leed_blockdev.Blockdev.read d ~off:0 ~len:4096 in
        let degraded = Sim.now () -. t1 in
        Leed_blockdev.Blockdev.set_service_factor d 1.0;
        (base, degraded))
  in
  let ratio = degraded /. base in
  Alcotest.(check bool)
    (Printf.sprintf "4x slower (ratio %.2f)" ratio)
    true
    (ratio > 3.9 && ratio < 4.1)

let test_blockdev_fail_and_repair () =
  Sim.run (fun () ->
      let d = Leed_blockdev.Blockdev.create nojitter in
      Leed_blockdev.Blockdev.write_seq d ~off:0 (Bytes.of_string "alive");
      Leed_blockdev.Blockdev.fail d;
      Alcotest.(check bool) "marked failed" true (Leed_blockdev.Blockdev.is_failed d);
      (match Leed_blockdev.Blockdev.read d ~off:0 ~len:5 with
      | _ -> Alcotest.fail "expected Blockdev.Failed"
      | exception Leed_blockdev.Blockdev.Failed _ -> ());
      (match Leed_blockdev.Blockdev.write_seq d ~off:0 (Bytes.of_string "x") with
      | () -> Alcotest.fail "expected Blockdev.Failed"
      | exception Leed_blockdev.Blockdev.Failed _ -> ());
      Leed_blockdev.Blockdev.repair d;
      let got = Leed_blockdev.Blockdev.read d ~off:0 ~len:5 in
      Alcotest.(check string) "data survives fail/repair" "alive" (Bytes.to_string got))

(* --- netsim link rules --- *)

let test_netsim_drop_rule () =
  Sim.run (fun () ->
      let fab = Netsim.fabric ~size:(fun () -> 64) () in
      let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
      let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
      let got = ref 0 in
      Netsim.set_receiver b (fun _ -> incr got);
      let ida = Netsim.id a in
      let rid =
        Netsim.add_fault fab (fun src _ -> if Netsim.id src = ida then Some Netsim.Drop else None)
      in
      Netsim.send fab ~src:a ~dst:b ();
      Sim.delay 0.01;
      Alcotest.(check int) "dropped" 0 !got;
      Alcotest.(check int) "counted" 1 (Netsim.fabric_stats fab).Netsim.dropped;
      Netsim.remove_fault fab rid;
      Netsim.send fab ~src:a ~dst:b ();
      Sim.delay 0.01;
      Alcotest.(check int) "healed" 1 !got)

let test_netsim_delay_rule () =
  let plain, jittered =
    Sim.run (fun () ->
        let fab = Netsim.fabric ~base_latency_us:1. ~size:(fun () -> 64) () in
        let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
        let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
        let arrived = ref 0. in
        Netsim.set_receiver b (fun _ -> arrived := Sim.now ());
        let t0 = Sim.now () in
        Netsim.send fab ~src:a ~dst:b ();
        Sim.delay 0.01;
        let plain = !arrived -. t0 in
        let rid = Netsim.add_fault fab (fun _ _ -> Some (Netsim.Delay (Sim.us 100.))) in
        let t1 = Sim.now () in
        Netsim.send fab ~src:a ~dst:b ();
        Sim.delay 0.01;
        Netsim.remove_fault fab rid;
        Alcotest.(check int) "counted" 1 (Netsim.fabric_stats fab).Netsim.delayed;
        (plain, !arrived -. t1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "+100us (plain %.1fus, jittered %.1fus)" (Sim.to_us plain) (Sim.to_us jittered))
    true
    (jittered -. plain > 95e-6 && jittered -. plain < 105e-6)

(* --- cluster helpers (mirrors test_cluster.ml) --- *)

let quiet_store_config =
  { Store.default_config with Store.nsegments = 512; compaction_window = 64 * 1024 }

let test_engine_config =
  { Engine.default_config with Engine.store_config = quiet_store_config; partitions_per_ssd = 1 }

let quiet_platform =
  {
    Leed_platform.Platform.smartnic_jbof with
    Leed_platform.Platform.ssd =
      { Leed_platform.Platform.smartnic_jbof.Leed_platform.Platform.ssd with Leed_blockdev.Blockdev.jitter = 0. };
  }

let mk_cluster ?(nnodes = 3) ?(r = 3) () =
  let config =
    {
      Cluster.default_config with
      Cluster.nnodes;
      r;
      engine_config = test_engine_config;
      platform = quiet_platform;
    }
  in
  Cluster.create ~config ()

let check_all_readable ?(upto = 29) c expect_of =
  for i = 0 to upto do
    match Client.get c (key i) with
    | Some v -> Alcotest.(check string) "value" (expect_of i) (Bytes.to_string v)
    | None -> Alcotest.failf "key %d missing" i
    | exception Client.Unavailable _ -> Alcotest.failf "key %d unavailable" i
  done

(* --- crash-restart recovery path --- *)

let test_fast_revive_serves_after_replay () =
  (* Crash and restart within the detection window: the node is never
     expelled, so recovery is pure log replay — no COPY traffic — and the
     revived node must serve its share again from recovered state. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:3 () in
      let c = Cluster.client cl in
      for i = 0 to 29 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      Cluster.crash_node cl 1;
      Sim.delay 0.1;
      let copied = Cluster.restart_node cl 1 in
      Alcotest.(check int) "fast revive needs no COPY" 0 copied;
      Sim.delay 0.5;
      check_all_readable c (Printf.sprintf "v%d");
      let stats = Control.stats (Cluster.control cl) in
      Alcotest.(check int) "never expelled" 0 stats.Control.n_failures_handled;
      (* The revived node must actually hold its replicas again: every
         chain through node 1 must answer from node 1's own engine. *)
      let n1 = Cluster.node cl 1 in
      let ring = Control.ring (Cluster.control cl) in
      let served = ref 0 in
      for i = 0 to 29 do
        List.iter
          (fun (e : Ring.entry) ->
            if e.Ring.owner.Ring.node = 1 then begin
              match Engine.submit (Node.engine n1) ~pid:e.Ring.owner.Ring.vidx (Engine.Get (key i)) with
              | Ok (Some _) -> incr served
              | _ -> Alcotest.failf "node 1 lost key %d across restart" i
            end)
          (Ring.chain ring ~r:3 (key i))
      done;
      Alcotest.(check bool) (Printf.sprintf "node 1 serves %d replicas" !served) true (!served > 0))

let test_restart_after_expulsion_rejoins () =
  (* Stay down past the miss limit: the detector expels the node and
     repairs its chains; the restart must then take the full rejoin path
     (log replay + §3.8.1 COPY) and end as a serving member. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:4 () in
      let c = Cluster.client cl in
      for i = 0 to 29 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      Cluster.crash_node cl 1;
      Sim.delay 2.0;
      let stats = Control.stats (Cluster.control cl) in
      Alcotest.(check int) "expelled" 1 stats.Control.n_failures_handled;
      ignore (Cluster.restart_node cl 1);
      Sim.delay 0.5;
      let stats = Control.stats (Cluster.control cl) in
      Alcotest.(check int) "rejoined" 1 stats.Control.n_joins;
      Alcotest.(check int) "full membership" 4 (List.length (Control.node_ids (Cluster.control cl)));
      check_all_readable c (Printf.sprintf "v%d"))

let test_second_failure_during_repair () =
  (* A second node dies while the first failure's chain repair is still
     in flight. With R=3 every key still has a survivor; after both
     repairs settle, everything must be readable. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:5 () in
      let c = Cluster.client cl in
      for i = 0 to 59 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      Cluster.crash_node cl 1;
      (* Detection takes ~3 misses at 200 ms; strike the second node just
         as the first repair kicks off. *)
      Sim.delay 0.65;
      Cluster.crash_node cl 3;
      Sim.delay 3.0;
      let stats = Control.stats (Cluster.control cl) in
      Alcotest.(check int) "both expelled" 2 stats.Control.n_failures_handled;
      Alcotest.(check int) "three survivors" 3 (List.length (Control.node_ids (Cluster.control cl)));
      check_all_readable ~upto:59 c (Printf.sprintf "v%d"))

(* --- injector: network faults and the heal-and-readmit path --- *)

let test_isolation_healed_before_miss_limit () =
  (* Full NIC blackout shorter than the detection window: membership must
     be untouched and data fully available after the heal. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:4 () in
      let c = Cluster.client cl in
      for i = 0 to 29 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      let sched =
        Schedule.make
          [ { Schedule.at = 0.05; fault = Schedule.Link_loss { node = 2; prob = 1.0; duration = 0.3 } } ]
      in
      let inj = Injector.arm cl sched in
      Injector.wait_quiesced inj;
      Sim.delay 0.5;
      let stats = Control.stats (Cluster.control cl) in
      Alcotest.(check int) "no expulsion" 0 stats.Control.n_failures_handled;
      Alcotest.(check int) "membership intact" 4 (List.length (Control.node_ids (Cluster.control cl)));
      check_all_readable c (Printf.sprintf "v%d"))

let test_isolation_healed_after_miss_limit () =
  (* Blackout past the miss limit: the detector expels the node while its
     process is still alive. On heal the injector must notice the
     expulsion and re-admit it through the full rejoin path. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:4 () in
      let c = Cluster.client cl in
      for i = 0 to 29 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      let sched =
        Schedule.make
          [ { Schedule.at = 0.05; fault = Schedule.Link_loss { node = 2; prob = 1.0; duration = 1.5 } } ]
      in
      let inj = Injector.arm cl sched in
      Injector.wait_quiesced inj;
      Sim.delay 1.0;
      let stats = Control.stats (Cluster.control cl) in
      Alcotest.(check int) "expelled during blackout" 1 stats.Control.n_failures_handled;
      Alcotest.(check int) "re-admitted on heal" 1 stats.Control.n_joins;
      Alcotest.(check int) "full membership" 4 (List.length (Control.node_ids (Cluster.control cl)));
      check_all_readable c (Printf.sprintf "v%d");
      Alcotest.(check bool) "injector logged the rejoin" true
        (List.exists (fun (_, m) -> String.length m > 0 && m.[0] = 'n') (Injector.log inj)))

let test_partition_between_node_sets () =
  (* A data-plane partition severs chain traffic between the two sides
     (messages are dropped and counted) but heals cleanly. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:4 () in
      let c = Cluster.client cl in
      for i = 0 to 29 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      let sched =
        Schedule.make
          [
            {
              Schedule.at = 0.05;
              fault = Schedule.Partition { a = [ 0 ]; b = [ 1; 2; 3 ]; duration = 0.4 };
            };
          ]
      in
      let inj = Injector.arm cl sched in
      (* Write load during the partition: chain hops crossing the cut are
         dropped, so some writes time out and retry; nothing may wedge. *)
      Sim.delay 0.1;
      for i = 0 to 29 do
        match Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i)) with
        | () -> ()
        | exception Client.Unavailable _ -> ()
      done;
      Injector.wait_quiesced inj;
      Sim.delay 0.5;
      Alcotest.(check bool) "messages were dropped" true
        ((Netsim.fabric_stats (Cluster.fabric cl)).Netsim.dropped > 0);
      Alcotest.(check int) "membership intact" 4 (List.length (Control.node_ids (Cluster.control cl)));
      check_all_readable c (Printf.sprintf "v%d"))

(* --- chaos determinism --- *)

let small_chaos seed =
  {
    Chaos.default_config with
    Chaos.seed;
    nnodes = 3;
    r = 2;
    nclients = 2;
    nkeys = 48;
    object_size = 128;
    duration = 1.5;
    outage_bound = 0.;
    schedule =
      Some
        (Schedule.make
           [
             { Schedule.at = 0.3; fault = Schedule.Link_jitter { node = 0; extra = Sim.us 50.; duration = 0.5 } };
             { Schedule.at = 0.4; fault = Schedule.Crash_restart { node = 1; downtime = 0.1 } };
           ]);
  }

let test_chaos_same_seed_identical () =
  let r1 = Chaos.run (small_chaos 7) in
  let r2 = Chaos.run (small_chaos 7) in
  if not r1.Chaos.ok then Format.eprintf "%a@." Chaos.pp_report r1;
  Alcotest.(check bool) "invariants hold" true (r1.Chaos.ok && r2.Chaos.ok);
  Alcotest.(check int) "no acked-write loss" 0 r1.Chaos.lost_writes;
  Alcotest.(check string) "bit-identical digests" r1.Chaos.digest r2.Chaos.digest;
  (* Known answers recorded before [Chaos.run] was split into phases: a
     rerun of the same commit cannot see a reordered digest field or a
     moved spawn, RNG draw or simulated call, but these can. *)
  Alcotest.(check string) "known digest" "90b71fe106c3d5944e3a62c9a4dbaed3" r1.Chaos.digest;
  Alcotest.(check string) "known state digest" "121e0021ca8b1fd729c2b045b7e6c32b"
    r1.Chaos.state_digest;
  Alcotest.(check string) "no fail-slow, no detection" "-0x1p+0"
    (Printf.sprintf "%h" r1.Chaos.detection_latency)

let test_chaos_different_seed_diverges () =
  let r1 = Chaos.run (small_chaos 7) in
  let r2 = Chaos.run (small_chaos 8) in
  Alcotest.(check bool) "different seeds, different digests" true
    (r1.Chaos.digest <> r2.Chaos.digest)

(* The full-size bit-rot schedule of seed 8 expels a node while a scrub
   escalation re-copies a rotted vnode's arcs: the re-copy must walk a
   frozen ring, or the expulsion pulls the entry it is copying out from
   under it and the whole run aborts. *)
let test_chaos_recopy_survives_membership_change () =
  let r = Chaos.run { Chaos.default_config with Chaos.seed = 8; bit_rot = true } in
  if not r.Chaos.ok then Format.eprintf "%a@." Chaos.pp_report r;
  Alcotest.(check bool) "invariants hold" true r.Chaos.ok

let () =
  Alcotest.run "leed_fault"
    [
      ( "hooks",
        [
          Alcotest.test_case "blockdev degrade slows reads" `Quick test_blockdev_degrade_slows_reads;
          Alcotest.test_case "blockdev fail and repair" `Quick test_blockdev_fail_and_repair;
          Alcotest.test_case "netsim drop rule" `Quick test_netsim_drop_rule;
          Alcotest.test_case "netsim delay rule" `Quick test_netsim_delay_rule;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "fast revive serves after replay" `Quick test_fast_revive_serves_after_replay;
          Alcotest.test_case "restart after expulsion rejoins" `Quick test_restart_after_expulsion_rejoins;
          Alcotest.test_case "second failure during repair" `Quick test_second_failure_during_repair;
        ] );
      ( "injector",
        [
          Alcotest.test_case "isolation healed before miss limit" `Quick test_isolation_healed_before_miss_limit;
          Alcotest.test_case "isolation healed after miss limit" `Quick test_isolation_healed_after_miss_limit;
          Alcotest.test_case "partition between node sets" `Quick test_partition_between_node_sets;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "same seed, identical digest" `Quick test_chaos_same_seed_identical;
          Alcotest.test_case "different seed diverges" `Quick test_chaos_different_seed_diverges;
          Alcotest.test_case "bit-rot recopy survives a membership change" `Quick
            test_chaos_recopy_survives_membership_change;
        ] );
    ]
