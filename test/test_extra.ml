(* Additional edge-case and protocol-level tests across the libraries. *)

open Leed_sim
open Leed_core
open Leed_baselines
open Leed_blockdev

let key = Leed_workload.Workload.key_of_id

(* --- sim primitives --- *)

let test_suspend_resume_once () =
  (* A second resume of the same suspension must be ignored. *)
  let r =
    Sim.run (fun () ->
        let resumer = ref (fun _ -> ()) in
        let v =
          Sim.suspend (fun resume ->
              resumer := resume;
              Sim.after 0.1 (fun () -> resume 1);
              Sim.after 0.2 (fun () -> resume 2))
        in
        Sim.delay 0.5;
        v)
  in
  Alcotest.(check int) "first resume wins" 1 r

let test_resource_exception_releases () =
  Sim.run (fun () ->
      let r = Sim.Resource.create ~capacity:1 () in
      (try Sim.Resource.with_ r (fun () -> failwith "boom") with Failure _ -> ());
      (* The slot must have been released. *)
      Sim.Resource.acquire r;
      Alcotest.(check int) "reacquired" 1 (Sim.Resource.in_use r))

(* --- circular log reserve/write_reserved --- *)

let test_reserve_then_write () =
  Sim.run (fun () ->
      let dev = Blockdev.create (Blockdev.instant ()) in
      let log = Circular_log.create ~name:"r" ~dev ~dev_id:0 ~base:0 ~size:4096 in
      let o1 = Circular_log.reserve log 5 in
      let o2 = Circular_log.reserve log 5 in
      Alcotest.(check int) "ordered reservations" 5 (o2 - o1);
      (* Committed tail stays below the unwritten reservations. *)
      Alcotest.(check int) "committed tail" o1 (Circular_log.committed_tail log);
      Circular_log.write_reserved log ~loff:o1 (Bytes.of_string "aaaaabbbbb");
      Alcotest.(check int) "all durable" (o2 + 5) (Circular_log.committed_tail log);
      Alcotest.(check string) "contents" "aaaaabbbbb"
        (Bytes.to_string (Circular_log.read log ~loff:o1 ~len:10)))

let test_pin_counting () =
  Sim.run (fun () ->
      let dev = Blockdev.create (Blockdev.instant ()) in
      let log = Circular_log.create ~name:"p" ~dev ~dev_id:0 ~base:0 ~size:4096 in
      Alcotest.(check int) "unpinned" 0 (Circular_log.pinned log);
      Circular_log.with_pin log (fun () ->
          Alcotest.(check int) "pinned" 1 (Circular_log.pinned log));
      Alcotest.(check int) "released" 0 (Circular_log.pinned log);
      (try Circular_log.with_pin log (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "released on exception" 0 (Circular_log.pinned log))

(* --- workload: virtual-keyspace zipf --- *)

let test_virtual_zipf_spreads_hot_mass () =
  Sim.run (fun () ->
      let g =
        Leed_workload.Workload.generator ~object_size:256
          (Leed_workload.Workload.ycsb_c ())
          ~nkeys:4_000 (Rng.create 5)
      in
      let counts = Hashtbl.create 64 in
      let n = 50_000 in
      for _ = 1 to n do
        match Leed_workload.Workload.next g with
        | Leed_workload.Workload.Read k ->
            Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
        | _ -> ()
      done;
      let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
      let share = float_of_int top /. float_of_int n in
      (* With the paper-scale virtual rank space, the hottest key must stay
         in single-digit percent, like Zipf-0.99 over 1.6B items. *)
      Alcotest.(check bool) (Printf.sprintf "top share %.3f < 0.08" share) true (share < 0.08))

(* --- FAWN write-through mode --- *)

let test_fawn_write_through () =
  Sim.run (fun () ->
      let dev = Blockdev.create { (Blockdev.dct983) with Blockdev.jitter = 0. } in
      let log = Circular_log.create ~name:"wt" ~dev ~dev_id:0 ~base:0 ~size:(1 lsl 20) in
      let s =
        Fawn_store.create
          ~config:{ Fawn_store.default_config with Fawn_store.flush_threshold = 0 }
          ~log ()
      in
      let t0 = Sim.now () in
      Fawn_store.put s (key 1) (Bytes.make 256 'x');
      let dt = Sim.now () -. t0 in
      (* Synchronous write-through: the PUT pays the device write. *)
      Alcotest.(check bool) (Printf.sprintf "put took %.0fus" (dt *. 1e6)) true (dt > 20e-6);
      Alcotest.(check int) "nothing buffered" (Circular_log.committed_tail log)
        (Circular_log.tail log))

(* --- node protocol: stale views NACK --- *)

let quiet_platform =
  {
    Leed_platform.Platform.smartnic_jbof with
    Leed_platform.Platform.ssd =
      { Leed_platform.Platform.smartnic_jbof.Leed_platform.Platform.ssd with Blockdev.jitter = 0. };
  }

let test_write_with_wrong_hop_nacks () =
  Sim.run (fun () ->
      let config =
        {
          Cluster.default_config with
          Cluster.nnodes = 3;
          engine_config =
            { Engine.default_config with Engine.partitions_per_ssd = 1;
              store_config = { Store.default_config with Store.nsegments = 256 } };
          platform = quiet_platform;
        }
      in
      let cl = Cluster.create ~config () in
      let n0 = Cluster.node cl 0 in
      (* Find a key whose chain head is NOT node 0's vnode, then claim to
         be at hop 0 for it: the view check must NACK. *)
      let ring = Node.ring n0 in
      let k = ref "" in
      (try
         for i = 0 to 500 do
           match Ring.chain ring ~r:3 (key i) with
           | h :: _ when h.Ring.owner.Ring.node <> 0 ->
               k := key i;
               raise Exit
           | _ -> ()
         done
       with Exit -> ());
      Alcotest.(check bool) "found key" true (!k <> "");
      let bogus_vn = { Ring.node = 0; vidx = 0 } in
      match
        Node.handle n0
          (Messages.Write { vn = bogus_vn; key = !k; value = Some (Bytes.of_string "x"); hop = 0; version = 0; deadline = 0. })
      with
      | Messages.Nack (Messages.Stale_view _) -> ()
      | _ -> Alcotest.fail "expected Stale_view NACK")

let test_ping_handled () =
  Sim.run (fun () ->
      let config = { Cluster.default_config with Cluster.nnodes = 3; platform = quiet_platform } in
      let cl = Cluster.create ~config () in
      match Node.handle (Cluster.node cl 0) Messages.Ping with
      | Messages.Pong _ -> ()
      | _ -> Alcotest.fail "ping must be acked")

(* --- cluster: delete through chain, reads of deleted keys --- *)

let test_cluster_delete_visible_on_all_replicas () =
  Sim.run (fun () ->
      let config = { Cluster.default_config with Cluster.nnodes = 3; platform = quiet_platform } in
      let cl = Cluster.create ~config () in
      let c = Cluster.client cl in
      for i = 0 to 9 do
        Client.put c (key i) (Bytes.of_string "v")
      done;
      for i = 0 to 9 do
        Client.del c (key i)
      done;
      (* With CRRS any replica can serve; repeat reads to hit them all. *)
      for _ = 1 to 3 do
        for i = 0 to 9 do
          Alcotest.(check (option string)) "deleted everywhere" None
            (Option.map Bytes.to_string (Client.get c (key i)))
        done
      done;
      Alcotest.(check int) "no live objects" 0 (Cluster.total_objects cl))

let test_two_failures_sequential () =
  (* With 5 nodes and R=3, two sequential crashes must both be repaired. *)
  Sim.run (fun () ->
      let config = { Cluster.default_config with Cluster.nnodes = 5; platform = quiet_platform } in
      let cl = Cluster.create ~config () in
      let c = Cluster.client cl in
      for i = 0 to 29 do
        Client.put c (key i) (Bytes.of_string (string_of_int i))
      done;
      Cluster.crash_node cl 1;
      Sim.delay 2.5;
      Cluster.crash_node cl 3;
      Sim.delay 2.5;
      let stats = Control.stats (Cluster.control cl) in
      Alcotest.(check int) "both handled" 2 stats.Control.n_failures_handled;
      for i = 0 to 29 do
        match Client.get c (key i) with
        | Some v -> Alcotest.(check string) "survives two failures" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost" i
      done)

let test_store_recovery_after_heavy_churn () =
  Sim.run (fun () ->
      let dev = Blockdev.create (Blockdev.instant ()) in
      let klog = Circular_log.create ~name:"k" ~dev ~dev_id:0 ~base:0 ~size:(1 lsl 22) in
      let vlog = Circular_log.create ~name:"v" ~dev ~dev_id:0 ~base:(1 lsl 22) ~size:(1 lsl 22) in
      let cfg = { Store.default_config with Store.nsegments = 128 } in
      let st = Store.create ~config:cfg ~name:"churn" ~klog ~vlog () in
      (* Heavy churn: overwrites, deletes, re-inserts, a compaction. *)
      for round = 1 to 5 do
        for i = 0 to 99 do
          Store.put st (key i) (Bytes.of_string (Printf.sprintf "r%d-%d" round i))
        done
      done;
      for i = 0 to 49 do
        Store.del st (key i)
      done;
      ignore (Store.compact_key_log st);
      for i = 0 to 24 do
        Store.put st (key i) (Bytes.of_string (Printf.sprintf "back-%d" i))
      done;
      (* Crash: rebuild over the same logs. *)
      let st' = Store.create ~config:cfg ~name:"rec" ~klog ~vlog () in
      Store.recover st';
      for i = 0 to 99 do
        let expect =
          if i < 25 then Some (Printf.sprintf "back-%d" i)
          else if i < 50 then None
          else Some (Printf.sprintf "r5-%d" i)
        in
        Alcotest.(check (option string)) (Printf.sprintf "key %d" i) expect
          (Option.map Bytes.to_string (Store.get st' (key i)))
      done)

(* --- kvell batching accessor --- *)

let test_kvell_avg_batch () =
  Sim.run (fun () ->
      let devs = [| Blockdev.create (Blockdev.instant ()) |] in
      let s =
        Kvell_store.create
          ~config:{ Kvell_store.default_config with Kvell_store.nworkers = 1; slot_size = 512 }
          ~devs ()
      in
      for i = 0 to 99 do
        Kvell_store.put s (key i) (Bytes.of_string "x")
      done;
      Alcotest.(check bool) "batches recorded" true (Kvell_store.avg_batch s >= 1.

      ))

(* --- named-counter reads: kind checks and derived totals --- *)

let test_counter_wrong_kind_raises () =
  let c = [ ("store.bytes", Backend.Count 4); ("client.backoff_s", Sum 0.5); ("netcache.hot", Gauge 3) ] in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s did not raise" what
    | exception Invalid_argument _ -> ()
  in
  raises "count of a sum" (fun () -> Backend.count c "client.backoff_s");
  raises "sum of a count" (fun () -> Backend.sum c "store.bytes");
  raises "sum of a gauge" (fun () -> Backend.sum c "netcache.hot");
  Alcotest.(check int) "count of a gauge" 3 (Backend.count c "netcache.hot")

let test_counter_derived_totals () =
  let c =
    [
      ("blockdev.reads", Backend.Count 5); ("blockdev.writes", Count 7);
      ("client.sheds", Count 2); ("engine.sheds", Count 9);
    ]
  in
  Alcotest.(check int) "nvme accesses" 12 (Backend.nvme_accesses c);
  Alcotest.(check int) "sheds" 11 (Backend.sheds c);
  Alcotest.(check int) "nvme accesses, writes unregistered" 5
    (Backend.nvme_accesses [ ("blockdev.reads", Backend.Count 5) ])

let () =
  Alcotest.run "leed_extra"
    [
      ( "sim",
        [
          Alcotest.test_case "suspend resumes once" `Quick test_suspend_resume_once;
          Alcotest.test_case "resource releases on exception" `Quick test_resource_exception_releases;
        ] );
      ( "circular_log",
        [
          Alcotest.test_case "reserve/write_reserved" `Quick test_reserve_then_write;
          Alcotest.test_case "pin counting" `Quick test_pin_counting;
        ] );
      ( "workload",
        [ Alcotest.test_case "virtual zipf spreads hot mass" `Quick test_virtual_zipf_spreads_hot_mass ] );
      ("fawn", [ Alcotest.test_case "write-through mode" `Quick test_fawn_write_through ]);
      ( "protocol",
        [
          Alcotest.test_case "wrong hop NACKs" `Quick test_write_with_wrong_hop_nacks;
          Alcotest.test_case "ping handled" `Quick test_ping_handled;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "delete visible on all replicas" `Quick test_cluster_delete_visible_on_all_replicas;
          Alcotest.test_case "two sequential failures" `Quick test_two_failures_sequential;
        ] );
      ( "store",
        [ Alcotest.test_case "recovery after heavy churn" `Quick test_store_recovery_after_heavy_churn ] );
      ("kvell", [ Alcotest.test_case "avg batch accessor" `Quick test_kvell_avg_batch ]);
      ( "counter-reads",
        [
          Alcotest.test_case "wrong kind raises" `Quick test_counter_wrong_kind_raises;
          Alcotest.test_case "derived totals add their parts" `Quick test_counter_derived_totals;
        ] );
    ]
