(* Tests for the network fabric and RPC layer. *)

open Leed_sim
open Leed_netsim
module Trace = Leed_trace.Trace

let test_send_receive () =
  let got =
    Sim.run (fun () ->
        let fab = Netsim.fabric ~size:(fun _ -> 1024) () in
        let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
        let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
        let iv = Sim.Ivar.create () in
        Netsim.set_receiver b (fun env -> Sim.Ivar.fill iv env.Netsim.payload);
        Netsim.send fab ~src:a ~dst:b "ping";
        Sim.Ivar.read iv)
  in
  Alcotest.(check string) "payload" "ping" got

let test_latency_charged () =
  let t =
    Sim.run (fun () ->
        let fab = Netsim.fabric ~base_latency_us:3.0 ~size:(fun () -> 1250) () in
        let a = Netsim.endpoint fab ~name:"a" ~gbps:1. in
        let b = Netsim.endpoint fab ~name:"b" ~gbps:1. in
        let iv = Sim.Ivar.create () in
        Netsim.set_receiver b (fun _ -> Sim.Ivar.fill iv (Sim.now ()));
        Netsim.send fab ~src:a ~dst:b ();
        Sim.Ivar.read iv)
  in
  (* 1250 B at 1 Gb/s = 10 us per side, + 3 us switch = 23 us *)
  Alcotest.(check bool) (Printf.sprintf "t=%g in [20us,30us]" t) true (t > 20e-6 && t < 30e-6)

let test_down_endpoint_drops () =
  let delivered =
    Sim.run (fun () ->
        let fab = Netsim.fabric ~size:(fun () -> 64) () in
        let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
        let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
        let got = ref false in
        Netsim.set_receiver b (fun _ -> got := true);
        Netsim.set_down b;
        Netsim.send fab ~src:a ~dst:b ();
        Sim.delay 1.;
        !got)
  in
  Alcotest.(check bool) "dropped" false delivered

(* A message that dies at a down endpoint closes its in-flight span like
   one a fault rule drops: [c] is down when the message crosses the
   switch, [d] goes down while the message holds its NIC. *)
let test_dropped_spans_close () =
  Trace.start ();
  Sim.run (fun () ->
      let fab = Netsim.fabric ~size:(fun () -> 1250) () in
      let ep name = Netsim.endpoint fab ~name ~gbps:1. in
      let a = ep "a" and b = ep "b" and c = ep "c" and d = ep "d" in
      Netsim.set_down c;
      (* 1250 B at 1 Gb/s hold a NIC for 10 us; the switch adds 3 us *)
      List.iter (fun dst -> Netsim.send fab ~src:a ~dst ()) [ b; c; d ];
      Sim.delay (Sim.us 8.);
      Netsim.set_down d;
      Sim.delay 1.);
  Trace.stop ();
  let msg ph =
    List.filter (fun e -> e.Trace.cat = "net" && e.Trace.name = "msg" && e.Trace.ph = ph)
  in
  let evs = Trace.events () in
  let ends = msg 'e' evs in
  Alcotest.(check int) "every begin has an end" (List.length (msg 'b' evs)) (List.length ends);
  Alcotest.(check int) "two closed as dropped" 2
    (List.length (List.filter (fun e -> List.mem_assoc "dropped" e.Trace.args) ends))

let test_stats () =
  Sim.run (fun () ->
      (* each payload is its own size *)
      let fab = Netsim.fabric ~size:Fun.id () in
      let a = Netsim.endpoint fab ~name:"a" ~gbps:100. in
      let b = Netsim.endpoint fab ~name:"b" ~gbps:100. in
      Netsim.send fab ~src:a ~dst:b 500;
      Netsim.send fab ~src:a ~dst:b 300;
      Sim.delay 0.1;
      let sa = Netsim.stats a and sb = Netsim.stats b in
      Alcotest.(check int) "sent msgs" 2 sa.Netsim.msgs_out;
      Alcotest.(check int) "sent bytes" 800 sa.Netsim.bytes_out;
      Alcotest.(check int) "recv msgs" 2 sb.Netsim.msgs_in)

(* --- RPC --- *)

module Rpc = Netsim.Rpc

(* A client and a server endpoint on a fabric whose messages are all
   [size] bytes; the server answers with [handler]. *)
let pair ?(base_latency_us = 3.0) ?(gbps = 100.) ?(size = fun _ -> 64) handler =
  let fab = Netsim.fabric ~base_latency_us ~size () in
  let server = Rpc.create fab ~name:"server" ~gbps in
  let cli = Rpc.create fab ~name:"client" ~gbps in
  Rpc.serve server handler;
  (cli, server)

let call cli ~dst q = Option.get (Rpc.call_timeout cli ~dst ~timeout:10. q)

let test_rpc_roundtrip () =
  let r =
    Sim.run (fun () ->
        let cli, server = pair (fun q -> q * 2) in
        call cli ~dst:server 21)
  in
  Alcotest.(check int) "doubled" 42 r

let test_rpc_handler_can_block () =
  let r, t =
    Sim.run (fun () ->
        let cli, server =
          pair ~base_latency_us:0. ~gbps:1000. (fun () ->
              Sim.delay 0.5;
              "slow")
        in
        let r = call cli ~dst:server () in
        (r, Sim.now ()))
  in
  Alcotest.(check string) "value" "slow" r;
  Alcotest.(check bool) "took 0.5s" true (t >= 0.5)

let test_rpc_concurrent_calls () =
  (* Interleaved calls must match responses to the right requests. *)
  let rs =
    Sim.run (fun () ->
        let cli, server =
          pair (fun q ->
              (* Later requests answer faster: exercises out-of-order resp. *)
              Sim.delay (0.1 /. float_of_int q);
              q * 10)
        in
        let results = Array.make 5 0 in
        Sim.fork_join (List.init 5 (fun i () -> results.(i) <- call cli ~dst:server (i + 1)));
        Array.to_list results)
  in
  Alcotest.(check (list int)) "matched" [ 10; 20; 30; 40; 50 ] rs

let test_rpc_timeout_on_dead_server () =
  let r =
    Sim.run (fun () ->
        let cli, server = pair (fun () -> ()) in
        Rpc.set_down server;
        Rpc.call_timeout cli ~dst:server ~timeout:0.1 ())
  in
  Alcotest.(check bool) "timed out" true (r = None)

let test_rpc_bandwidth_contention () =
  (* A 1 Gb/s server NIC receiving 100 requests of 12.5 KB each needs at
     least 10 ms just for the wire time. *)
  let t =
    Sim.run (fun () ->
        let fab =
          Netsim.fabric ~base_latency_us:1.
            ~size:(function Rpc.Req _ -> 12_500 | Rpc.Resp _ -> 64)
            ()
        in
        let server = Rpc.create fab ~name:"server" ~gbps:1. in
        let cli = Rpc.create fab ~name:"client" ~gbps:100. in
        Rpc.serve server (fun () -> ());
        Sim.fork_join (List.init 100 (fun _ () -> call cli ~dst:server ()));
        Sim.now ())
  in
  Alcotest.(check bool) (Printf.sprintf "t=%g >= 10ms" t) true (t >= 0.01)

(* An endpoint completes its own calls from creation on, but answers
   nothing until it serves; a request it dropped is not answered later. *)
let test_rpc_requests_before_serve () =
  Sim.run (fun () ->
      let fab = Netsim.fabric ~size:(fun _ -> 64) () in
      let a = Rpc.create fab ~name:"a" ~gbps:100. in
      let b = Rpc.create fab ~name:"b" ~gbps:100. in
      Rpc.serve b (fun q -> q + 1);
      let call src ~dst q = Rpc.call_timeout src ~dst ~timeout:0.1 q in
      Alcotest.(check (option int)) "request dropped" None (call b ~dst:a 1);
      Alcotest.(check (option int)) "response completes" (Some 2) (call a ~dst:b 1);
      Rpc.serve a (fun q -> q * 2);
      Alcotest.(check (option int)) "served" (Some 42) (call b ~dst:a 21);
      Sim.delay 0.1;
      (* b heard a's request and one answer: the dropped request stays dropped *)
      Alcotest.(check int) "b's arrivals" 2 (Netsim.stats (Rpc.endpoint b)).Netsim.msgs_in)

(* [serve]'s handler runs on the fiber that delivered the request: a
   round trip spawns one receive process per delivered message and
   nothing more, yet two blocking handlers still overlap. A request to an
   endpoint that does not serve is still dropped on arrival, and one to a
   down endpoint still closes its span as dropped. *)
let test_rpc_handler_on_delivering_fiber () =
  Trace.start ();
  Sim.run (fun () ->
      let fab = Netsim.fabric ~base_latency_us:0. ~size:(fun _ -> 64) () in
      let ep name = Rpc.create fab ~name ~gbps:1000. in
      let cli = ep "client" and server = ep "server" and idle = ep "idle" in
      Rpc.serve server (fun q ->
          Sim.delay 0.5;
          q + 1);
      let spawns f =
        let before = Sim.processes_spawned () in
        let r = f () in
        (r, Sim.processes_spawned () - before)
      in
      let call_to dst () = Rpc.call_timeout cli ~dst ~timeout:1. 1 in
      Alcotest.(check (pair (option int) int))
        "answered, one spawn per delivered message" (Some 2, 2)
        (spawns (call_to server));
      let t0 = Sim.now () in
      Sim.fork_join [ (fun () -> ignore (call_to server ())); (fun () -> ignore (call_to server ())) ];
      Alcotest.(check bool) "blocking handlers overlap" true (Sim.now () -. t0 < 1.);
      Alcotest.(check (pair (option int) int))
        "not serving: dropped on arrival" (None, 1) (spawns (call_to idle));
      Rpc.set_down server;
      Alcotest.(check (pair (option int) int)) "down: dropped at the switch" (None, 0)
        (spawns (call_to server)));
  Trace.stop ();
  let msg ph =
    List.filter (fun e -> e.Trace.cat = "net" && e.Trace.name = "msg" && e.Trace.ph = ph)
  in
  let ends = msg 'e' (Trace.events ()) in
  Alcotest.(check int) "every begin has an end" (List.length (msg 'b' (Trace.events ()))) (List.length ends);
  Alcotest.(check int) "one closed as dropped" 1
    (List.length (List.filter (fun e -> List.mem_assoc "dropped" e.Trace.args) ends))

let test_rpc_sizer () =
  Sim.run (fun () ->
      let size = function Rpc.Req (_, q) -> 100 + q | Rpc.Resp (_, r) -> 1000 + r in
      let fab = Netsim.fabric ~size () in
      let server = Rpc.create fab ~name:"server" ~gbps:100. in
      let cli = Rpc.create fab ~name:"client" ~gbps:100. in
      Rpc.serve server (fun q -> q * 2);
      Alcotest.(check int) "reply" 10 (call cli ~dst:server 5);
      let sc = Netsim.stats (Rpc.endpoint cli) and ss = Netsim.stats (Rpc.endpoint server) in
      Alcotest.(check (list int)) "client out/in" [ 105; 1010 ]
        [ sc.Netsim.bytes_out; sc.Netsim.bytes_in ];
      Alcotest.(check (list int)) "server in/out" [ 105; 1010 ]
        [ ss.Netsim.bytes_in; ss.Netsim.bytes_out ];
      (* a switch-minted reply to an unknown request id is priced alike *)
      let switch = Netsim.endpoint fab ~name:"switch" ~gbps:100. in
      Netsim.inject fab ~src:switch ~dst:(Rpc.endpoint cli) (Rpc.Resp (99, 7));
      Sim.delay 0.01;
      Alcotest.(check int) "inject out" 1007 (Netsim.stats switch).Netsim.bytes_out;
      Alcotest.(check int) "inject in" 2017 (Netsim.stats (Rpc.endpoint cli)).Netsim.bytes_in)

let () =
  Alcotest.run "leed_netsim"
    [
      ( "fabric",
        [
          Alcotest.test_case "send/receive" `Quick test_send_receive;
          Alcotest.test_case "latency charged" `Quick test_latency_charged;
          Alcotest.test_case "down endpoint drops" `Quick test_down_endpoint_drops;
          Alcotest.test_case "dropped messages close their span" `Quick test_dropped_spans_close;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "handler can block" `Quick test_rpc_handler_can_block;
          Alcotest.test_case "concurrent calls matched" `Quick test_rpc_concurrent_calls;
          Alcotest.test_case "timeout on dead server" `Quick test_rpc_timeout_on_dead_server;
          Alcotest.test_case "bandwidth contention" `Quick test_rpc_bandwidth_contention;
          Alcotest.test_case "requests before serve are dropped, responses still complete" `Quick
            test_rpc_requests_before_serve;
          Alcotest.test_case "the fabric sizer prices requests, replies and injects" `Quick
            test_rpc_sizer;
          Alcotest.test_case "handler runs on the delivering fiber" `Quick
            test_rpc_handler_on_delivering_fiber;
        ] );
    ]
