(* The observability layer's own contract: same-seed traces are
   byte-identical, captures are structurally well-formed, the token
   instants replay into a conserved balance, and turning tracing on does
   not move a single event of virtual time. *)

open Leed_sim
open Leed_core
open Leed_workload
module Trace = Leed_trace.Trace

(* One small LEED cluster under a short YCSB-A closed loop — every layer
   (client, net, node, engine, dev, control) gets exercised. Returns the
   driver result and the virtual end-of-run time. *)
let workload ?(seed = 11) () =
  Sim.run (fun () ->
      let cluster =
        Cluster.create
          ~config:{ Cluster.default_config with Cluster.heartbeat_period = 0.01 }
          ()
      in
      let clients = List.init 2 (fun _ -> Cluster.client cluster) in
      let c0 = List.hd clients in
      for id = 0 to 99 do
        Client.put c0 (Workload.key_of_id id) (Workload.value_for ~id ~version:1 ~size:240)
      done;
      let gen =
        Workload.generator ~object_size:256 (Workload.ycsb_a ()) ~nkeys:100 (Rng.create seed)
      in
      let r =
        Workload.Driver.closed_loop ~clients:2 ~duration:0.02 ~gen
          ~execute:
            (Workload.Driver.round_robin
               (fun c -> Workload.apply ~get:(Client.get c) ~put:(Client.put c))
               clients)
          ()
      in
      (r, Sim.now ()))

let traced_workload ?seed () =
  Trace.start ();
  let r = workload ?seed () in
  Trace.stop ();
  r

(* --- same-seed determinism ------------------------------------------- *)

let test_deterministic_json () =
  let _ = traced_workload () in
  let j1 = Trace.to_json () in
  let n1 = Trace.count () in
  let _ = traced_workload () in
  let j2 = Trace.to_json () in
  Alcotest.(check int) "same event count" n1 (Trace.count ());
  Alcotest.(check bool) "captured something" true (n1 > 1000);
  Alcotest.(check bool) "byte-identical JSON" true (String.equal j1 j2);
  (* A different seed must diverge — the equality above is not vacuous. *)
  let _ = traced_workload ~seed:12 () in
  Alcotest.(check bool) "different seed diverges" false (String.equal j1 (Trace.to_json ()))

let test_all_layers_present () =
  let _ = traced_workload () in
  let cats = List.sort_uniq compare (List.map (fun e -> e.Trace.cat) (Trace.events ())) in
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " events present") true (List.mem c cats))
    [ "client"; "net"; "node"; "engine"; "dev"; "control" ]

(* --- structural well-formedness -------------------------------------- *)

let test_well_formed () =
  let (_, t_end) = traced_workload () in
  let end_us = t_end *. 1e6 +. 1e-3 in
  (* The written JSON passes the schema validator. *)
  (match Trace.validate (Trace.to_json ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "validator rejected own output: %s" e);
  (* Every event sits inside the run; X durations are non-negative and
     contained; every async 'e' closes a previously opened 'b' of the
     same (cat, id, name) at a later-or-equal timestamp. *)
  let open_b = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) "ts >= 0" true (e.Trace.ts >= 0.);
      Alcotest.(check bool) "ts <= end" true (e.Trace.ts <= end_us);
      (match e.Trace.ph with
      | 'X' ->
          Alcotest.(check bool) "dur >= 0" true (e.Trace.dur >= 0.);
          Alcotest.(check bool) "span inside run" true (e.Trace.ts +. e.Trace.dur <= end_us)
      | 'b' -> Hashtbl.replace open_b (e.Trace.cat, e.Trace.id, e.Trace.name) e.Trace.ts
      | 'e' -> (
          match Hashtbl.find_opt open_b (e.Trace.cat, e.Trace.id, e.Trace.name) with
          | None -> Alcotest.failf "async end without begin: %s/%d/%s" e.Trace.cat e.Trace.id e.Trace.name
          | Some t0 ->
              Alcotest.(check bool) "async end after begin" true (e.Trace.ts >= t0);
              Hashtbl.remove open_b (e.Trace.cat, e.Trace.id, e.Trace.name))
      | _ -> ()))
    (Trace.events ())

(* --- token conservation ----------------------------------------------- *)

(* Replay the engine's tok.grant / tok.release instants per SSD track and
   require the running balance to agree with the recorded [active] at
   every step, stay within [0, capacity], and end where it started. *)
let test_token_conservation () =
  let _ = traced_workload () in
  let balance = Hashtbl.create 16 in
  let arg name args =
    match List.assoc_opt name args with
    | Some (Trace.Int v) -> v
    | _ -> Alcotest.failf "token instant missing %s arg" name
  in
  let grants = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.cat = "engine" && (e.Trace.name = "tok.grant" || e.Trace.name = "tok.release")
      then begin
        let key = (e.Trace.pid, e.Trace.tid) in
        let prev = Option.value ~default:0 (Hashtbl.find_opt balance key) in
        let tokens = arg "tokens" e.Trace.args in
        let active = arg "active" e.Trace.args in
        let capacity = arg "capacity" e.Trace.args in
        let now = if e.Trace.name = "tok.grant" then prev + tokens else prev - tokens in
        if e.Trace.name = "tok.grant" then incr grants;
        Alcotest.(check int) "replayed balance matches recorded active" active now;
        Alcotest.(check bool) "balance >= 0" true (now >= 0);
        Alcotest.(check bool) "balance <= capacity" true (now <= capacity);
        Hashtbl.replace balance key now
      end)
    (Trace.events ());
  Alcotest.(check bool) "token instants captured" true (!grants > 100);
  (* Closed-loop clients have drained, so every grant was released. *)
  Hashtbl.iter
    (fun (pid, tid) v ->
      Alcotest.(check int) (Printf.sprintf "ssd %d/%d quiesced" pid tid) 0 v)
    balance (* simlint: allow hashtbl-order — per-key assertions, order-free *)

(* --- zero virtual-time perturbation ----------------------------------- *)

let test_tracing_off_identical () =
  Trace.stop ();
  let before = Trace.count () in
  let (r_off, end_off) = workload () in
  Alcotest.(check int) "no events captured while off" before (Trace.count ());
  let (r_on, end_on) = traced_workload () in
  Alcotest.(check bool) "events captured while on" true (Trace.count () > 0);
  Alcotest.(check int) "same ops" r_off.Workload.Driver.ops r_on.Workload.Driver.ops;
  Alcotest.(check (float 0.)) "same throughput" r_off.Workload.Driver.throughput
    r_on.Workload.Driver.throughput;
  Alcotest.(check (float 0.)) "same virtual end time" end_off end_on

(* --- the top snapshot ----------------------------------------------- *)

(* Park more GETs on two partitions of JBOF 0 than the token pools admit,
   then snapshot while they wait: each SSD row must show its own
   partitions' queue, so JBOF 0's wait cells add up to the JBOF's total
   rather than repeating it on every row. *)
let test_top_wait_per_ssd () =
  Sim.run (fun () ->
      let cluster = Cluster.create () in
      let eng = Node.engine (Cluster.node cluster 0) in
      let last = Engine.npartitions eng - 1 in
      List.iter
        (fun pid ->
          for i = 0 to 199 do
            Sim.spawn (fun () ->
                ignore (Engine.submit eng ~pid (Engine.Get (Workload.key_of_id i))))
          done)
        [ 0; last ];
      Sim.delay (Sim.us 1.);
      let total = Array.fold_left (fun acc p -> acc + Engine.waiting_depth p) 0 (Engine.partitions eng) in
      Alcotest.(check bool) (Printf.sprintf "JBOF 0 has queued commands (%d)" total) true (total > 0);
      let wait = Option.get (List.find_index (String.equal "wait") Obs.top_columns) in
      let jbof0 =
        List.filter (fun row -> String.starts_with ~prefix:"jbof0/" (List.hd row)) (Obs.top_rows cluster)
      in
      Alcotest.(check int) "one row per SSD"
        (Array.length (Engine.ssds eng)) (List.length jbof0);
      let cells = List.map (fun row -> int_of_string (List.nth row wait)) jbof0 in
      Alcotest.(check int) "per-SSD wait cells sum to the JBOF's queue" total
        (List.fold_left ( + ) 0 cells))

let () =
  Alcotest.run "leed_trace"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, byte-identical JSON" `Quick test_deterministic_json;
          Alcotest.test_case "all layers emit" `Quick test_all_layers_present;
        ] );
      ( "structure",
        [
          Alcotest.test_case "well-formed capture" `Quick test_well_formed;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "token conservation replay" `Quick test_token_conservation;
          Alcotest.test_case "tracing off = identical run" `Quick test_tracing_off_identical;
        ] );
      ( "top", [ Alcotest.test_case "per-SSD wait cells" `Quick test_top_wait_per_ssd ] );
    ]
