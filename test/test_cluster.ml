(* Tests for the cluster layer: consistent-hashing ring, CRRS chain
   replication, client flow control, and membership/failure handling. *)

open Leed_sim
open Leed_core

let key = Leed_workload.Workload.key_of_id

(* --- ring --- *)

let mk_ring nnodes vper =
  let r = Ring.create () in
  for n = 0 to nnodes - 1 do
    for v = 0 to vper - 1 do
      let e = Ring.add r { Ring.node = n; vidx = v } in
      e.Ring.vstate <- Ring.Running
    done
  done;
  r

let test_ring_chain_distinct_nodes () =
  let r = mk_ring 5 4 in
  for i = 0 to 99 do
    let chain = Ring.chain r ~r:3 (key i) in
    Alcotest.(check int) "chain length" 3 (List.length chain);
    let nodes = List.map (fun e -> e.Ring.owner.Ring.node) chain in
    Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare nodes))
  done

let test_ring_chain_stable () =
  let r = mk_ring 4 4 in
  let c1 = Ring.chain r ~r:3 (key 42) in
  let c2 = Ring.chain r ~r:3 (key 42) in
  Alcotest.(check bool) "deterministic" true
    (List.map (fun e -> e.Ring.owner) c1 = List.map (fun e -> e.Ring.owner) c2)

let test_ring_joining_excluded () =
  let r = mk_ring 3 2 in
  let e = Ring.add r { Ring.node = 9; vidx = 0 } in
  Alcotest.(check bool) "joining state" true (e.Ring.vstate = Ring.Joining);
  for i = 0 to 49 do
    let chain = Ring.chain r ~r:3 (key i) in
    Alcotest.(check bool) "no joining member" true
      (List.for_all (fun m -> m.Ring.owner.Ring.node <> 9) chain)
  done;
  Ring.set_state r e.Ring.owner Ring.Running;
  let appears =
    List.exists
      (fun i -> List.exists (fun m -> m.Ring.owner.Ring.node = 9) (Ring.chain r ~r:3 (key i)))
      (List.init 200 Fun.id)
  in
  Alcotest.(check bool) "appears once running" true appears

let test_ring_remove_changes_version () =
  let r = mk_ring 3 2 in
  let v0 = Ring.version r in
  Ring.remove r { Ring.node = 0; vidx = 0 };
  Alcotest.(check bool) "version bumped" true (Ring.version r > v0)

let test_ring_snapshot_roundtrip () =
  let r = mk_ring 3 3 in
  let s = Ring.snapshot r in
  let r' = Ring.of_snapshot s in
  Alcotest.(check int) "same size" (Ring.size r) (Ring.size r');
  for i = 0 to 20 do
    let c = Ring.chain r ~r:3 (key i) and c' = Ring.chain r' ~r:3 (key i) in
    Alcotest.(check bool) "same chains" true
      (List.map (fun e -> e.Ring.owner) c = List.map (fun e -> e.Ring.owner) c')
  done

let test_ring_stale_install_ignored () =
  let r = mk_ring 3 2 in
  let s_old = Ring.snapshot r in
  Ring.remove r { Ring.node = 2; vidx = 1 };
  let v = Ring.version r in
  Ring.install r s_old;
  Alcotest.(check int) "stale ignored" v (Ring.version r)

let test_arc_covers_space () =
  (* Every key falls in exactly one vnode's arc. *)
  let r = mk_ring 4 4 in
  let entries = Ring.entries r in
  for i = 0 to 99 do
    let p = Ring.point_of_key (key i) in
    let owners =
      List.filter
        (fun e ->
          let lo, hi = Ring.arc_of r e in
          Ring.in_arc ~lo ~hi p)
        entries
    in
    Alcotest.(check int) "one owner" 1 (List.length owners)
  done

let ring_chain_prop =
  QCheck.Test.make ~name:"head of chain owns key's arc" ~count:100
    QCheck.(pair (int_range 2 8) (int_bound 10_000))
    (fun (nnodes, k) ->
      let r = mk_ring nnodes 3 in
      match Ring.chain r ~r:2 (key k) with
      | [] -> false
      | head :: _ ->
          let lo, hi = Ring.arc_of r head in
          Ring.key_in_arc ~lo ~hi (key k))

(* --- cluster helpers --- *)

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

let mk_cluster ?(nnodes = 3) ?(r = 3) ?(client_config = Client.default_config) () =
  let config =
    {
      Cluster.default_config with
      Cluster.nnodes;
      r;
      engine_config = test_engine_config;
      client_config;
      platform = quiet_platform;
    }
  in
  Cluster.create ~config ()

(* --- basic replication & consistency --- *)

let test_cluster_put_get () =
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      Client.put c (key 1) (Bytes.of_string "hello");
      (match Client.get c (key 1) with
      | Some v -> Alcotest.(check string) "value" "hello" (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      Alcotest.(check (option string)) "absent" None
        (Option.map Bytes.to_string (Client.get c (key 2))))

let test_cluster_delete () =
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      Client.put c (key 5) (Bytes.of_string "x");
      Client.del c (key 5);
      Alcotest.(check (option string)) "deleted" None
        (Option.map Bytes.to_string (Client.get c (key 5))))

let test_client_key_length () =
  (* Refused before any RPC: no simulated time passes. *)
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      let k300 = String.make 300 'k' in
      let t0 = Sim.now () in
      List.iter
        (fun (op, f) ->
          Alcotest.check_raises op
            (Invalid_argument (Printf.sprintf "Client.%s: key longer than 255 bytes" op))
            f)
        [
          ("get", fun () -> ignore (Client.get c k300));
          ("put", fun () -> Client.put c k300 (Bytes.of_string "x"));
          ("del", fun () -> Client.del c k300);
        ];
      Alcotest.(check (float 0.)) "no RPC sent" t0 (Sim.now ());
      let k255 = String.make 255 'k' in
      Client.put c k255 (Bytes.of_string "long");
      Alcotest.(check (option string)) "255-byte key served" (Some "long")
        (Option.map Bytes.to_string (Client.get c k255)))

let test_write_replicated_r_times () =
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      for i = 0 to 19 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      (* Each of the 20 objects must exist on exactly R=3 stores. *)
      let total = Cluster.total_objects cl in
      Alcotest.(check int) "3 replicas per object" (20 * 3) total)

let test_read_after_write_any_replica () =
  (* With CRRS the read may hit any replica; committed writes must always
     be visible. *)
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      for round = 1 to 5 do
        for i = 0 to 9 do
          Client.put c (key i) (Bytes.of_string (Printf.sprintf "r%d" round))
        done;
        for i = 0 to 9 do
          match Client.get c (key i) with
          | Some v -> Alcotest.(check string) "committed visible" (Printf.sprintf "r%d" round) (Bytes.to_string v)
          | None -> Alcotest.failf "key %d missing in round %d" i round
        done
      done)

let test_concurrent_read_write_no_stale () =
  (* Readers racing a write must see either the old or the new value —
     and strictly the new value after the write completes. *)
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      Client.put c (key 1) (Bytes.of_string "old");
      let anomalies = ref 0 in
      let write_done = ref false in
      Sim.fork_join
        [
          (fun () ->
            Client.put c (key 1) (Bytes.of_string "new");
            write_done := true);
          (fun () ->
            for _ = 1 to 20 do
              let was_done = !write_done in
              (match Client.get c (key 1) with
              | Some v ->
                  let s = Bytes.to_string v in
                  if s <> "old" && s <> "new" then incr anomalies;
                  if was_done && s <> "new" then incr anomalies
              | None -> incr anomalies);
              Sim.delay (Sim.us 20.)
            done);
        ];
      Alcotest.(check int) "no anomalies" 0 !anomalies)

let test_dirty_read_ships_to_tail () =
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      Client.put c (key 7) (Bytes.of_string "v0");
      (* Fire a burst of concurrent writes and reads; some reads should hit
         dirty replicas and be shipped. All must return committed data. *)
      Sim.fork_join
        (List.concat
           (List.init 10 (fun i ->
                [
                  (fun () -> Client.put c (key 7) (Bytes.of_string (Printf.sprintf "v%d" (i + 1))));
                  (fun () ->
                    match Client.get c (key 7) with
                    | Some v ->
                        let s = Bytes.to_string v in
                        if String.length s < 1 || s.[0] <> 'v' then Alcotest.fail "garbled read"
                    | None -> Alcotest.fail "read lost during writes");
                ])));
      let shipped =
        List.fold_left (fun acc n -> acc + (Node.stats n).Node.n_shipped_reads) 0 (Cluster.nodes cl)
      in
      Alcotest.(check bool) (Printf.sprintf "shipped=%d > 0" shipped) true (shipped > 0))

let test_flow_control_tokens_refresh () =
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let c = Cluster.client cl in
      for i = 0 to 49 do
        Client.put c (key i) (Bytes.of_string "x")
      done;
      for i = 0 to 49 do
        ignore (Client.get c (key i))
      done;
      (* After traffic, cached token balances must reflect piggybacks. *)
      Alcotest.(check int) "no retries in healthy cluster" 0 (Client.retries c))

let test_without_flow_control_still_correct () =
  Sim.run (fun () ->
      let cl =
        mk_cluster
          ~client_config:{ Client.default_config with Client.flow_control = false; crrs = false }
          ()
      in
      let c = Cluster.client cl in
      for i = 0 to 19 do
        Client.put c (key i) (Bytes.of_string (string_of_int i))
      done;
      for i = 0 to 19 do
        match Client.get c (key i) with
        | Some v -> Alcotest.(check string) "value" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "missing %d" i
      done)

let test_many_clients_parallel () =
  Sim.run (fun () ->
      let cl = mk_cluster () in
      let clients = List.init 4 (fun _ -> Cluster.client cl) in
      Sim.fork_join
        (List.mapi
           (fun ci c () ->
             for i = 0 to 24 do
               let k = key ((ci * 100) + i) in
               Client.put c k (Bytes.of_string (Printf.sprintf "c%d-%d" ci i))
             done)
           clients);
      List.iteri
        (fun ci c ->
          for i = 0 to 24 do
            let k = key ((ci * 100) + i) in
            match Client.get c k with
            | Some v -> Alcotest.(check string) "value" (Printf.sprintf "c%d-%d" ci i) (Bytes.to_string v)
            | None -> Alcotest.failf "missing c%d-%d" ci i
          done)
        clients)

(* --- membership --- *)

let test_node_join_keeps_data_available () =
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:3 () in
      let c = Cluster.client cl in
      for i = 0 to 49 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      let _n, copied = Cluster.add_node cl in
      Alcotest.(check bool) (Printf.sprintf "copied %d > 0" copied) true (copied > 0);
      Sim.delay 0.1;
      for i = 0 to 49 do
        match Client.get c (key i) with
        | Some v -> Alcotest.(check string) "value after join" (Printf.sprintf "v%d" i) (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost after join" i
      done;
      (* The new node must actually serve some keys. *)
      let n3 = Cluster.node cl 3 in
      let objs =
        Array.fold_left
          (fun acc p -> acc + Store.objects (Engine.store p))
          0
          (Engine.partitions (Node.engine n3))
      in
      Alcotest.(check bool) (Printf.sprintf "new node holds %d objects" objs) true (objs > 0))

let test_node_leave_keeps_data_available () =
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:4 () in
      let c = Cluster.client cl in
      for i = 0 to 49 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      let copied = Cluster.remove_node cl 0 in
      Alcotest.(check bool) (Printf.sprintf "copied %d > 0" copied) true (copied > 0);
      Sim.delay 0.1;
      for i = 0 to 49 do
        match Client.get c (key i) with
        | Some v -> Alcotest.(check string) "value after leave" (Printf.sprintf "v%d" i) (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost after leave" i
      done)

let test_writes_during_join_not_lost () =
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:3 () in
      let c = Cluster.client cl in
      for i = 0 to 29 do
        Client.put c (key i) (Bytes.of_string "before")
      done;
      let latest = Array.make 30 "before" in
      Sim.fork_join
        [
          (fun () -> ignore (Cluster.add_node cl));
          (fun () ->
            (* Writes racing the join. *)
            for i = 0 to 29 do
              let v = Printf.sprintf "during%d" i in
              Client.put c (key i) (Bytes.of_string v);
              latest.(i) <- v;
              Sim.delay (Sim.us 200.)
            done);
        ];
      Sim.delay 0.1;
      for i = 0 to 29 do
        match Client.get c (key i) with
        | Some v -> Alcotest.(check string) "latest value" latest.(i) (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost during join" i
      done)

let test_node_crash_recovers () =
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:4 () in
      let c = Cluster.client cl in
      for i = 0 to 29 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      Cluster.crash_node cl 1;
      (* Heartbeat monitor: 3 misses at 200 ms. Give it time to detect and
         repair. *)
      Sim.delay 2.0;
      for i = 0 to 29 do
        match Client.get c (key i) with
        | Some v -> Alcotest.(check string) "value after crash" (Printf.sprintf "v%d" i) (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost after crash" i
      done;
      let stats = Control.stats (Cluster.control cl) in
      Alcotest.(check int) "failure handled" 1 stats.Control.n_failures_handled)

let test_reads_during_crash_window () =
  (* Between the crash and its detection, reads targeting the dead node
     time out and retry elsewhere; nothing hangs forever. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:4 () in
      let c = Cluster.client cl in
      for i = 0 to 9 do
        Client.put c (key i) (Bytes.of_string "v")
      done;
      Cluster.crash_node cl 2;
      let failures = ref 0 in
      for i = 0 to 9 do
        match Client.get c (key i) with
        | Some _ -> ()
        | None -> incr failures
        | exception Client.Unavailable _ -> incr failures
      done;
      Sim.delay 2.5;
      (* After repair, everything must be readable again. *)
      for i = 0 to 9 do
        match Client.get c (key i) with
        | Some v -> Alcotest.(check string) "post-repair" "v" (Bytes.to_string v)
        | None -> Alcotest.failf "key %d lost" i
      done)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "chain distinct nodes" `Quick test_ring_chain_distinct_nodes;
          Alcotest.test_case "chain stable" `Quick test_ring_chain_stable;
          Alcotest.test_case "joining excluded" `Quick test_ring_joining_excluded;
          Alcotest.test_case "remove bumps version" `Quick test_ring_remove_changes_version;
          Alcotest.test_case "snapshot roundtrip" `Quick test_ring_snapshot_roundtrip;
          Alcotest.test_case "stale install ignored" `Quick test_ring_stale_install_ignored;
          Alcotest.test_case "arcs cover space" `Quick test_arc_covers_space;
        ] );
      ( "replication",
        [
          Alcotest.test_case "put/get" `Quick test_cluster_put_get;
          Alcotest.test_case "delete" `Quick test_cluster_delete;
          Alcotest.test_case "key over 255 B rejected" `Quick test_client_key_length;
          Alcotest.test_case "R replicas per object" `Quick test_write_replicated_r_times;
          Alcotest.test_case "read-after-write, any replica" `Quick test_read_after_write_any_replica;
          Alcotest.test_case "concurrent read/write no stale" `Quick test_concurrent_read_write_no_stale;
          Alcotest.test_case "dirty reads ship to tail" `Quick test_dirty_read_ships_to_tail;
        ] );
      ( "flow-control",
        [
          Alcotest.test_case "tokens refresh" `Quick test_flow_control_tokens_refresh;
          Alcotest.test_case "disabled still correct" `Quick test_without_flow_control_still_correct;
          Alcotest.test_case "many clients" `Quick test_many_clients_parallel;
        ] );
      ( "membership",
        [
          Alcotest.test_case "join keeps data available" `Quick test_node_join_keeps_data_available;
          Alcotest.test_case "leave keeps data available" `Quick test_node_leave_keeps_data_available;
          Alcotest.test_case "writes during join not lost" `Quick test_writes_during_join_not_lost;
          Alcotest.test_case "crash detected and repaired" `Quick test_node_crash_recovers;
          Alcotest.test_case "reads during crash window" `Quick test_reads_during_crash_window;
        ] );
      qsuite "properties" [ ring_chain_prop ];
    ]
