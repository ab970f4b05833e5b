(* Tests for the gray-failure tolerance machinery: fail-slow schedule
   variants and their wire round-trip, hedged CRRS GETs (first response
   wins, loser cancelled without double accounting), adaptive
   per-destination timeouts, engine-side deadline shedding, the
   control-plane deprioritize -> drain -> fence ladder with post-heal
   re-admission, and same-seed chaos determinism with hedging on. *)

open Leed_sim
open Leed_core
open Leed_fault.Fault

let key = Leed_workload.Workload.key_of_id

(* --- schedule: new variants and the wire format --- *)

let all_variant_schedule =
  Schedule.make
    [
      { Schedule.at = 0.1; fault = Schedule.Crash 2 };
      { Schedule.at = 0.2; fault = Schedule.Crash_restart { node = 1; downtime = 0.3 } };
      {
        Schedule.at = 0.25;
        fault = Schedule.Partition { a = [ 0 ]; b = [ 1; 2; 3 ]; duration = 0.4 };
      };
      { Schedule.at = 0.3; fault = Schedule.Link_loss { node = 3; prob = 1. /. 3.; duration = 0.5 } };
      { Schedule.at = 0.35; fault = Schedule.Link_jitter { node = 0; extra = Sim.us 50.; duration = 0.2 } };
      {
        Schedule.at = 0.4;
        fault = Schedule.Ssd_degrade { node = 2; ssd = 1; factor = 4.2; duration = 0.7 };
      };
      { Schedule.at = 0.45; fault = Schedule.Ssd_fail { node = 1; ssd = 0 } };
      { Schedule.at = 0.5; fault = Schedule.Bit_rot { node = 0; flips = 17 } };
      { Schedule.at = 0.55; fault = Schedule.Fail_slow { node = 4; factor = 10.5; duration = 2.8 } };
      {
        Schedule.at = 0.6;
        fault =
          Schedule.Link_jitter_ramp
            { node = 4; peak = 200e-6; ramp = 0.1; duration = 1.6; inbound = true };
      };
    ]

let test_wire_round_trip () =
  (* %h floats must round-trip bit-exactly, including values with no
     short decimal form (1/3, Sim.us 50.). *)
  let s = all_variant_schedule in
  let s' = Schedule.of_wire (Schedule.to_wire s) in
  Alcotest.(check bool) "round-trips structurally" true (s = s');
  (* A second encode of the decode is byte-identical (canonical form). *)
  Alcotest.(check string) "canonical encode" (Schedule.to_wire s) (Schedule.to_wire s')

let test_wire_rejects_malformed () =
  let bad line =
    match Schedule.of_wire line with
    | _ -> Alcotest.failf "accepted malformed %S" line
    | exception Invalid_argument _ -> ()
  in
  bad "0.5 fail-slow 1";
  bad "0.5 no-such-fault 1 2 3";
  bad "not-a-float crash 0"

let test_random_fail_slow_victim_safety () =
  (* The gray-failure victim must never stack on a crash-restart or
     partition victim: a fenced slow node's re-copy racing a crash
     victim's rejoin on the same arcs is a different (unscheduled)
     double-fault. The jitter ramp rides on the same slow node. *)
  let saw_fail_slow = ref false in
  for seed = 1 to 8 do
    let s = Schedule.random ~fail_slow:true ~seed ~nnodes:5 ~duration:4.0 () in
    let crash =
      List.filter_map
        (function { Schedule.fault = Schedule.Crash_restart { node; _ }; _ } -> Some node | _ -> None)
        s
    in
    let part =
      List.concat_map (function { Schedule.fault = Schedule.Partition { a; _ }; _ } -> a | _ -> []) s
    in
    let slow =
      List.filter_map
        (function { Schedule.fault = Schedule.Fail_slow { node; _ }; _ } -> Some node | _ -> None)
        s
    in
    let ramp =
      List.filter_map
        (function { Schedule.fault = Schedule.Link_jitter_ramp { node; _ }; _ } -> Some node | _ -> None)
        s
    in
    List.iter
      (fun v ->
        saw_fail_slow := true;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: slow victim %d distinct from crash victims" seed v)
          false (List.mem v crash);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: slow victim %d distinct from partition victim" seed v)
          false (List.mem v part);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: jitter ramp rides the slow victim" seed)
          true
          (List.for_all (fun r -> r = v) ramp))
      slow;
    (* Without the flag the schedule must stay gray-failure-free. *)
    let s0 = Schedule.random ~seed ~nnodes:5 ~duration:4.0 () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: no fail-slow without the flag" seed)
      true
      (List.for_all
         (function
           | { Schedule.fault = Schedule.Fail_slow _; _ }
           | { Schedule.fault = Schedule.Link_jitter_ramp _; _ } ->
               false
           | _ -> true)
         s0)
  done;
  Alcotest.(check bool) "at least one seed produced a fail-slow" true !saw_fail_slow

(* --- engine: deadline-aware load shedding --- *)

let small_store_config =
  { Store.default_config with Store.nsegments = 512; compaction_window = 64 * 1024 }

let test_platform =
  {
    Leed_platform.Platform.smartnic_jbof with
    Leed_platform.Platform.ssd =
      {
        Leed_platform.Platform.smartnic_jbof.Leed_platform.Platform.ssd with
        Leed_blockdev.Blockdev.jitter = 0.;
      };
  }

let test_engine_sheds_expired_queue () =
  Sim.run ~checks:true (fun () ->
      (* Swapping off: otherwise the overloaded puts get redirected to the
         idle SSDs and the doomed GET never waits long enough to expire. *)
      let config =
        { Engine.default_config with Engine.store_config = small_store_config; swap_enabled = false }
      in
      let e = Engine.create ~config test_platform in
      Engine.start e;
      Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key 0, Bytes.of_string "v")));
      (* Bury partition 0's SSD under writes, then enqueue a GET whose
         deadline expires while it waits: it must complete as [Shed]
         without consuming tokens (the ~checks sanitizer would flag a
         leak) or touching flash. *)
      for i = 0 to 63 do
        Sim.spawn ~label:"test:filler" (fun () ->
            Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key (i + 1), Bytes.make 4096 'x'))))
      done;
      (* Yield so the fillers enqueue ahead of the doomed GET. *)
      Sim.delay (Sim.us 5.);
      let deadline = Sim.now () +. Sim.us 100. in
      (match Engine.submit ~deadline e ~pid:0 (Engine.Get (key 0)) with
      | Error Engine.Shed -> ()
      | o ->
          Alcotest.failf "expected Shed, got %s"
            (match o with
            | Ok (Some _) -> "a value"
            | Ok None -> "no value"
            | Error Engine.Failed -> "Failed"
            | Error Engine.Corrupt -> "Corrupt"
            | Error Engine.Shed -> "Shed"
            | Error Engine.Overloaded -> "Overloaded"));
      Sim.delay 1.0;
      let s0 = Engine.ssd_stats (Engine.ssds e).(0) in
      Alcotest.(check bool) (Printf.sprintf "shed counted (%d)" s0.Engine.shed) true (s0.Engine.shed >= 1);
      (* A deadline already satisfied must not shed. *)
      match Engine.submit ~deadline:(Sim.now () +. 1.0) e ~pid:0 (Engine.Get (key 0)) with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "in-budget get must serve")

(* --- cluster helpers --- *)

let test_engine_config =
  { Engine.default_config with Engine.store_config = small_store_config; partitions_per_ssd = 1 }

(* A probe period longer than any test here: no heartbeat round runs, so
   neither the slow ladder nor the failure detector acts. *)
let no_probes = 1000.

let mk_cluster ?(nnodes = 3) ?(r = 3) ?(heartbeat_period = Cluster.default_config.heartbeat_period)
    ?(client_config = Client.default_config) () =
  let config =
    {
      Cluster.default_config with
      Cluster.nnodes;
      r;
      engine_config = test_engine_config;
      client_config;
      platform = test_platform;
      heartbeat_period;
    }
  in
  Cluster.create ~config ()

let preload c n =
  for i = 0 to n - 1 do
    Client.put c (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
  done

let warm_gets c n nkeys =
  for i = 0 to n - 1 do
    ignore (Client.get c (key (i mod nkeys)))
  done

(* --- hedged GETs --- *)

let test_hedge_beats_slow_primary () =
  (* Gray-slow one replica with the ladder disabled (nothing steers reads
     away), warm the client's histograms, then read under the fault:
     hedges must fire and win, every read must still return the right
     value, and once healed nothing may be left in flight. ~checks:true
     keeps the token-conservation sanitizer on, so a cancelled loser that
     double-counted tokens would abort the run. *)
  Sim.run ~checks:true (fun () ->
      let cl = mk_cluster ~nnodes:3 ~heartbeat_period:no_probes () in
      let c = Cluster.client cl in
      preload c 48;
      warm_gets c 240 48;
      Alcotest.(check bool) "hedge delay armed after warmup" true (Client.hedge_delay c <> None);
      let before = Client.hedges c in
      Node.set_slow_factor (Cluster.node cl 0) 20.0;
      for i = 0 to 149 do
        let k = i mod 48 in
        match Client.get c (key k) with
        | Some v -> Alcotest.(check string) "value under fail-slow" (Printf.sprintf "v%d" k) (Bytes.to_string v)
        | None -> Alcotest.failf "key %d missing under fail-slow" k
        | exception Client.Unavailable _ -> Alcotest.failf "key %d unavailable under fail-slow" k
      done;
      Node.set_slow_factor (Cluster.node cl 0) 1.0;
      let fired = Client.hedges c - before in
      Alcotest.(check bool) (Printf.sprintf "hedges fired (%d)" fired) true (fired > 0);
      Alcotest.(check bool)
        (Printf.sprintf "hedges won (%d of %d)" (Client.hedge_wins c) (Client.hedges c))
        true
        (Client.hedge_wins c > 0);
      Alcotest.(check bool) "wins never exceed hedges" true (Client.hedge_wins c <= Client.hedges c);
      (* Losing branches hold an RPC slot until their (adaptive) timeout;
         after a settle they must all have drained — a leaked pending slot
         is a cancelled hedge that never completed its accounting. *)
      Sim.delay 1.0;
      Alcotest.(check int) "no RPC left in flight" 0 (Client.pending_rpcs c))

let test_hedge_cold_client_never_fires () =
  (* Below [hedge_min_samples] the client must behave exactly like the
     naive configuration: no delay armed, no hedges fired. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:3 ~heartbeat_period:no_probes () in
      let c = Cluster.client cl in
      preload c 8;
      Alcotest.(check bool) "cold: no hedge delay" true (Client.hedge_delay c = None);
      for i = 0 to 7 do
        ignore (Client.get c (key i))
      done;
      Alcotest.(check int) "cold: no hedges" 0 (Client.hedges c))

(* --- adaptive timeouts --- *)

let test_adaptive_timeout_tracks_destination () =
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:3 ~heartbeat_period:no_probes () in
      let c = Cluster.client cl in
      preload c 48;
      let static = Client.rpc_timeout in
      let floor_ = Client.timeout_floor in
      warm_gets c 240 48;
      let warm_nodes =
        List.filter (fun n -> Client.timeout_for c (Node.id n) < static -. 1e-9) (Cluster.nodes cl)
      in
      (* Healthy destinations converge far below the static timeout and
         clamp at the floor — a convoy must not read as death. *)
      Alcotest.(check bool) "some destination converged below static" true (warm_nodes <> []);
      List.iter
        (fun n ->
          let t = Client.timeout_for c (Node.id n) in
          Alcotest.(check bool)
            (Printf.sprintf "node %d timeout %.4fs >= floor" (Node.id n) t)
            true (t >= floor_ -. 1e-12))
        (Cluster.nodes cl);
      (* Gray-slow one node hard enough that mult x its quantile clears
         the floor: its timeout must rise while staying clamped at the
         static ceiling. *)
      Node.set_slow_factor (Cluster.node cl 0) 50.0;
      warm_gets c 150 48;
      Node.set_slow_factor (Cluster.node cl 0) 1.0;
      let t_slow = Client.timeout_for c 0 in
      Alcotest.(check bool)
        (Printf.sprintf "slow destination timeout rose above floor (%.4fs)" t_slow)
        true
        (t_slow > floor_ +. 1e-9);
      Alcotest.(check bool) "still clamped at static ceiling" true (t_slow <= static +. 1e-12);
      Sim.delay 1.0)

(* --- the one switch --- *)

(* A warm client reads for 1.5 s against a 20x fail-slow node, long enough
   for several probe rounds. Returns the hedges fired, every node's
   current timeout, and the control plane's slow events. *)
let gray_run gray_defenses =
  Sim.run (fun () ->
      let cl = mk_cluster ~client_config:{ Client.default_config with Client.gray_defenses } () in
      let c = Cluster.client cl in
      preload c 48;
      warm_gets c 240 48;
      Node.set_slow_factor (Cluster.node cl 0) 20.0;
      let stop = Sim.now () +. 1.5 in
      let i = ref 0 in
      while not (Sim.past stop) do
        (try ignore (Client.get c (key (!i mod 48))) with Client.Unavailable _ -> ());
        incr i
      done;
      let timeouts = List.map (fun n -> Client.timeout_for c (Node.id n)) (Cluster.nodes cl) in
      (Client.hedges c, timeouts, (Control.stats (Cluster.control cl)).Control.n_slow_events))

let test_gray_defenses_switch () =
  (* Off: the naive baseline, with none of the three defenses acting. *)
  let hedges, timeouts, slow_events = gray_run false in
  Alcotest.(check int) "off: no hedge fires" 0 hedges;
  List.iteri
    (fun id t -> Alcotest.(check (float 0.)) (Printf.sprintf "off: node %d static timeout" id) Client.rpc_timeout t)
    timeouts;
  Alcotest.(check int) "off: no slow event" 0 slow_events;
  (* On: each defense acts under the same load. *)
  let hedges, timeouts, slow_events = gray_run true in
  Alcotest.(check bool) (Printf.sprintf "on: hedges fire (%d)" hedges) true (hedges > 0);
  Alcotest.(check bool) "on: some timeout adapted below the static one" true
    (List.exists (fun t -> t < Client.rpc_timeout) timeouts);
  Alcotest.(check bool) (Printf.sprintf "on: slow events (%d)" slow_events) true (slow_events > 0)

(* --- the escalation ladder and post-heal re-admission --- *)

let test_ladder_fences_and_readmits () =
  (* One node goes 10x gray-slow under live load. The control plane must
     walk it deprioritize (1) -> drain (2) -> fence (3), the fence runs
     the fail-stop path (expel + chain repair from survivors), and on
     heal the injector must re-admit it through the full Section 3.8.1
     join — even though the fence's repair may still be in flight at
     heal time. *)
  Sim.run (fun () ->
      let cl = mk_cluster ~nnodes:5 () in
      let c = Cluster.client cl in
      preload c 40;
      (* Background load: the ladder scores heartbeat-reported service
         times, which only move while the engines serve traffic. *)
      let stop = Sim.now () +. 4.5 in
      for w = 0 to 2 do
        Sim.spawn ~label:"test:load" (fun () ->
            let wc = Cluster.client cl in
            let i = ref 0 in
            while not (Sim.past stop) do
              let k = key (40 + (w * 20) + (!i mod 20)) in
              (try
                 if !i mod 4 = 0 then Client.put wc k (Bytes.of_string "x")
                 else ignore (Client.get wc k)
               with Client.Unavailable _ -> ());
              incr i;
              Sim.delay 0.002
            done)
      done;
      let sched =
        Schedule.make
          [ { Schedule.at = 0.3; fault = Schedule.Fail_slow { node = 1; factor = 10.0; duration = 2.5 } } ]
      in
      let inj = Injector.arm cl sched in
      Injector.wait_quiesced inj;
      Sim.delay 0.5;
      let control = Cluster.control cl in
      let stages = List.filter_map (fun (_, n, s) -> if n = 1 then Some s else None) (Control.slow_log control) in
      (* slow_log is newest-first nowhere specified — accept any order,
         require all three rungs to have fired for the victim. *)
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "ladder rung %d reached" s)
            true (List.mem s stages))
        [ 1; 2; 3 ];
      let stats = Control.stats control in
      Alcotest.(check int) "fence ran the failure path" 1 stats.Control.n_failures_handled;
      Alcotest.(check int) "healed node rejoined" 1 stats.Control.n_joins;
      Alcotest.(check int) "full membership restored" 5 (List.length (Control.node_ids control));
      (* Untouched preloaded keys must have survived the fence's repair
         and the rejoin COPY. *)
      for i = 0 to 39 do
        match Client.get c (key i) with
        | Some v -> Alcotest.(check string) "value" (Printf.sprintf "v%d" i) (Bytes.to_string v)
        | None -> Alcotest.failf "key %d missing after readmission" i
        | exception Client.Unavailable _ -> Alcotest.failf "key %d unavailable after readmission" i
      done;
      Sim.delay 0.5)

(* --- chaos determinism with the gray-failure machinery on --- *)

let failslow_chaos seed =
  {
    Chaos.default_config with
    Chaos.seed;
    nnodes = 4;
    r = 2;
    nclients = 2;
    nkeys = 48;
    object_size = 128;
    duration = 1.5;
    outage_bound = 0.;
    op_deadline = 0.5;
    schedule =
      Some
        (Schedule.make
           [ { Schedule.at = 0.3; fault = Schedule.Fail_slow { node = 1; factor = 10.0; duration = 0.8 } } ]);
  }

let test_chaos_fail_slow_deterministic () =
  (* Hedging races two RPCs and takes whichever lands first; the race is
     resolved by virtual time, so same-seed runs must still be
     bit-identical — including the hedge/shed/slow counters in the
     digest. *)
  let r1 = Chaos.run (failslow_chaos 5) in
  let r2 = Chaos.run (failslow_chaos 5) in
  if not r1.Chaos.ok then Format.eprintf "%a@." Chaos.pp_report r1;
  Alcotest.(check bool) "invariants hold" true (r1.Chaos.ok && r2.Chaos.ok);
  Alcotest.(check int) "no acked-write loss" 0 r1.Chaos.lost_writes;
  Alcotest.(check string) "bit-identical digests" r1.Chaos.digest r2.Chaos.digest;
  Alcotest.(check int) "hedge counts agree"
    (Backend.count r1.Chaos.counters "client.hedges")
    (Backend.count r2.Chaos.counters "client.hedges");
  Alcotest.(check int) "shed counts agree" (Backend.sheds r1.Chaos.counters)
    (Backend.sheds r2.Chaos.counters);
  (* Known answers recorded before [Chaos.run] was split into phases. The
     detection latency runs from the Fail_slow's application (0.3 s) to
     the ladder's first event; measured from its heal (1.1 s) there is
     none. *)
  Alcotest.(check string) "known digest" "d20ecfd13d60ffe8f1954dec3c5667a6" r1.Chaos.digest;
  Alcotest.(check string) "known state digest" "7a69218d2156e7aa26384486f533051d"
    r1.Chaos.state_digest;
  Alcotest.(check string) "known detection latency" "0x1.fc65ae7e86b8ap-2"
    (Printf.sprintf "%h" r1.Chaos.detection_latency)

let () =
  Alcotest.run "leed_failslow"
    [
      ( "schedule",
        [
          Alcotest.test_case "wire round-trip" `Quick test_wire_round_trip;
          Alcotest.test_case "wire rejects malformed" `Quick test_wire_rejects_malformed;
          Alcotest.test_case "random fail-slow victim safety" `Quick test_random_fail_slow_victim_safety;
        ] );
      ( "shedding",
        [ Alcotest.test_case "engine sheds expired queue" `Quick test_engine_sheds_expired_queue ] );
      ( "hedging",
        [
          Alcotest.test_case "hedge beats slow primary" `Quick test_hedge_beats_slow_primary;
          Alcotest.test_case "cold client never hedges" `Quick test_hedge_cold_client_never_fires;
        ] );
      ( "timeouts",
        [ Alcotest.test_case "adaptive timeout tracks destination" `Quick test_adaptive_timeout_tracks_destination ] );
      ( "switch", [ Alcotest.test_case "gray_defenses off and on" `Quick test_gray_defenses_switch ] );
      ( "ladder",
        [ Alcotest.test_case "fence then readmit" `Quick test_ladder_fences_and_readmits ] );
      ( "chaos",
        [ Alcotest.test_case "fail-slow same seed identical" `Quick test_chaos_fail_slow_deterministic ] );
    ]
