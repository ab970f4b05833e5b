(* Tests for the network fabric and RPC layer. *)

open Leed_sim
open Leed_netsim

let test_send_receive () =
  let got =
    Sim.run (fun () ->
        let fab = Netsim.fabric () in
        let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
        let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
        let iv = Sim.Ivar.create () in
        Netsim.set_receiver b (fun env -> Sim.Ivar.fill iv env.Netsim.payload);
        Netsim.send fab ~src:a ~dst:b ~size:1024 "ping";
        Sim.Ivar.read iv)
  in
  Alcotest.(check string) "payload" "ping" got

let test_latency_charged () =
  let t =
    Sim.run (fun () ->
        let fab = Netsim.fabric ~base_latency_us:3.0 () in
        let a = Netsim.endpoint fab ~name:"a" ~gbps:1. in
        let b = Netsim.endpoint fab ~name:"b" ~gbps:1. in
        let iv = Sim.Ivar.create () in
        Netsim.set_receiver b (fun _ -> Sim.Ivar.fill iv (Sim.now ()));
        Netsim.send fab ~src:a ~dst:b ~size:1250 ();
        Sim.Ivar.read iv)
  in
  (* 1250 B at 1 Gb/s = 10 us per side, + 3 us switch = 23 us *)
  Alcotest.(check bool) (Printf.sprintf "t=%g in [20us,30us]" t) true (t > 20e-6 && t < 30e-6)

let test_down_endpoint_drops () =
  let delivered =
    Sim.run (fun () ->
        let fab = Netsim.fabric () in
        let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
        let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
        let got = ref false in
        Netsim.set_receiver b (fun _ -> got := true);
        Netsim.set_down b;
        Netsim.send fab ~src:a ~dst:b ~size:64 ();
        Sim.delay 1.;
        !got)
  in
  Alcotest.(check bool) "dropped" false delivered

let test_backlog_before_receiver () =
  let got =
    Sim.run (fun () ->
        let fab = Netsim.fabric () in
        let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
        let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
        Netsim.send fab ~src:a ~dst:b ~size:64 "early";
        Sim.delay 0.01;
        let iv = Sim.Ivar.create () in
        Netsim.set_receiver b (fun env -> Sim.Ivar.fill iv env.Netsim.payload);
        Sim.Ivar.read iv)
  in
  Alcotest.(check string) "backlogged" "early" got

let test_stats () =
  Sim.run (fun () ->
      let fab = Netsim.fabric () in
      let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
      let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
      Netsim.set_receiver b (fun _ -> ());
      Netsim.send fab ~src:a ~dst:b ~size:500 ();
      Netsim.send fab ~src:a ~dst:b ~size:300 ();
      Sim.delay 0.1;
      let sa = Netsim.stats a and sb = Netsim.stats b in
      Alcotest.(check int) "sent msgs" 2 sa.Netsim.msgs_out;
      Alcotest.(check int) "sent bytes" 800 sa.Netsim.bytes_out;
      Alcotest.(check int) "recv msgs" 2 sb.Netsim.msgs_in)

(* --- RPC --- *)

let test_rpc_roundtrip () =
  let r =
    Sim.run (fun () ->
        let fab = Netsim.fabric () in
        let server = Netsim.Rpc.create fab ~name:"server" ~gbps:100. in
        let cli = Netsim.Rpc.create fab ~name:"client" ~gbps:100. in
        Netsim.Rpc.serve server (fun _t ~src:_ q -> q * 2);
        Netsim.Rpc.client cli;
        Netsim.Rpc.call cli ~dst:server ~size:64 21)
  in
  Alcotest.(check int) "doubled" 42 r

let test_rpc_handler_can_block () =
  let r, t =
    Sim.run (fun () ->
        let fab = Netsim.fabric ~base_latency_us:0. () in
        let server = Netsim.Rpc.create fab ~name:"server" ~gbps:1000. in
        let cli = Netsim.Rpc.create fab ~name:"client" ~gbps:1000. in
        Netsim.Rpc.serve server (fun _t ~src:_ () ->
            Sim.delay 0.5;
            "slow");
        Netsim.Rpc.client cli;
        let r = Netsim.Rpc.call cli ~dst:server ~size:64 () in
        (r, Sim.now ()))
  in
  Alcotest.(check string) "value" "slow" r;
  Alcotest.(check bool) "took 0.5s" true (t >= 0.5)

let test_rpc_concurrent_calls () =
  (* Interleaved calls must match responses to the right requests. *)
  let rs =
    Sim.run (fun () ->
        let fab = Netsim.fabric () in
        let server = Netsim.Rpc.create fab ~name:"server" ~gbps:100. in
        let cli = Netsim.Rpc.create fab ~name:"client" ~gbps:100. in
        Netsim.Rpc.serve server (fun _t ~src:_ q ->
            (* Later requests answer faster: exercises out-of-order resp. *)
            Sim.delay (0.1 /. float_of_int q);
            q * 10);
        Netsim.Rpc.client cli;
        let results = Array.make 5 0 in
        Sim.fork_join
          (List.init 5 (fun i () -> results.(i) <- Netsim.Rpc.call cli ~dst:server ~size:64 (i + 1)));
        Array.to_list results)
  in
  Alcotest.(check (list int)) "matched" [ 10; 20; 30; 40; 50 ] rs

let test_rpc_timeout_on_dead_server () =
  let r =
    Sim.run (fun () ->
        let fab = Netsim.fabric () in
        let server = Netsim.Rpc.create fab ~name:"server" ~gbps:100. in
        let cli = Netsim.Rpc.create fab ~name:"client" ~gbps:100. in
        Netsim.Rpc.serve server (fun _t ~src:_ () -> ());
        Netsim.Rpc.client cli;
        Netsim.Rpc.set_down server;
        Netsim.Rpc.call_timeout cli ~dst:server ~size:64 ~timeout:0.1 ())
  in
  Alcotest.(check bool) "timed out" true (r = None)

let test_rpc_bandwidth_contention () =
  (* A 1 Gb/s server NIC receiving 100 requests of 12.5 KB each needs at
     least 10 ms just for the wire time. *)
  let t =
    Sim.run (fun () ->
        let fab = Netsim.fabric ~base_latency_us:1. () in
        let server = Netsim.Rpc.create fab ~name:"server" ~gbps:1. in
        let cli = Netsim.Rpc.create fab ~name:"client" ~gbps:100. in
        Netsim.Rpc.serve server (fun _t ~src:_ () -> ());
        Netsim.Rpc.client cli;
        Sim.fork_join
          (List.init 100 (fun _ () -> ignore (Netsim.Rpc.call cli ~dst:server ~size:12_500 ())));
        Sim.now ())
  in
  Alcotest.(check bool) (Printf.sprintf "t=%g >= 10ms" t) true (t >= 0.01)

let () =
  Alcotest.run "leed_netsim"
    [
      ( "fabric",
        [
          Alcotest.test_case "send/receive" `Quick test_send_receive;
          Alcotest.test_case "latency charged" `Quick test_latency_charged;
          Alcotest.test_case "down endpoint drops" `Quick test_down_endpoint_drops;
          Alcotest.test_case "backlog before receiver" `Quick test_backlog_before_receiver;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "handler can block" `Quick test_rpc_handler_can_block;
          Alcotest.test_case "concurrent calls matched" `Quick test_rpc_concurrent_calls;
          Alcotest.test_case "timeout on dead server" `Quick test_rpc_timeout_on_dead_server;
          Alcotest.test_case "bandwidth contention" `Quick test_rpc_bandwidth_contention;
        ] );
    ]
