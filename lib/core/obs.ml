(* Periodic observability sampler — the gauges a `top`-style view needs.

   Event-driven trace points (Engine token grants, Blockdev queue depths)
   fire where the action is; this module complements them with a fixed
   virtual-time cadence so counter tracks are dense even through idle
   stretches, and accumulates every gauge into streaming summaries that
   flush into a Stats.report table at the end of a run. *)

open Leed_sim
module Trace = Leed_trace.Trace
module Summary = Leed_stats.Summary
module Report = Leed_stats.Report

type t = {
  cluster : Cluster.t;
  period : float;
  mutable running : bool;
  mutable samples : int;
  (* streaming accumulators over all samples (per-object where noted) *)
  tokens_active : Summary.t;  (* per SSD *)
  tokens_capacity : Summary.t;  (* per SSD *)
  waiting : Summary.t;  (* per partition: queued commands *)
  dev_inflight : Summary.t;  (* per device *)
  rpc_pending : Summary.t;  (* per client *)
  swapped : Summary.t;  (* per partition: segments living in swap *)
  heap_depth : Summary.t;  (* scheduler event-heap depth *)
}

let create ?(period = 0.01) cluster =
  {
    cluster;
    period;
    running = false;
    samples = 0;
    tokens_active = Summary.create ();
    tokens_capacity = Summary.create ();
    waiting = Summary.create ();
    dev_inflight = Summary.create ();
    rpc_pending = Summary.create ();
    swapped = Summary.create ();
    heap_depth = Summary.create ();
  }

(* One sampling pass: read every live gauge, feed the accumulators, and
   (when tracing) drop counter events on the owning rows. *)
let sample t =
  t.samples <- t.samples + 1;
  let tracing = Trace.on () in
  List.iter
    (fun n ->
      let eng = Node.engine n in
      Array.iter
        (fun s ->
          let active = Engine.active_tokens s and cap = Engine.token_capacity s in
          Summary.add t.tokens_active (float_of_int active);
          Summary.add t.tokens_capacity (float_of_int cap);
          Summary.add t.dev_inflight
            (float_of_int (Leed_blockdev.Blockdev.inflight (Engine.ssd_device s)));
          if tracing then
            Trace.counter ~track:(Engine.ssd_track s) ~cat:"obs" "tokens.sampled"
              [ ("active", float_of_int active); ("capacity", float_of_int cap) ])
        (Engine.ssds eng);
      let node_waiting = ref 0 and node_swapped = ref 0 in
      Array.iter
        (fun p ->
          let w = Engine.waiting_depth p and sw = Engine.swapped_segments p in
          Summary.add t.waiting (float_of_int w);
          Summary.add t.swapped (float_of_int sw);
          node_waiting := !node_waiting + w;
          node_swapped := !node_swapped + sw)
        (Engine.partitions eng);
      if tracing then
        Trace.counter ~track:(Node.track n) ~cat:"obs" "vnodes"
          [
            ("waiting", float_of_int !node_waiting); ("swapped", float_of_int !node_swapped);
          ])
    (Cluster.nodes t.cluster);
  let pending =
    List.fold_left
      (fun acc c ->
        let p = Client.pending_rpcs c in
        Summary.add t.rpc_pending (float_of_int p);
        acc + p)
      0 (Cluster.clients t.cluster)
  in
  let heap = Sim.heap_depth () in
  Summary.add t.heap_depth (float_of_int heap);
  if tracing then begin
    Trace.counter ~cat:"obs" "rpc" [ ("pending", float_of_int pending) ];
    Trace.counter ~cat:"obs" "sim"
      [
        ("heap", float_of_int heap);
        ("dispatched", float_of_int (Sim.events_dispatched ()));
      ]
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Sim.every ~period:t.period (fun () ->
        if t.running then sample t;
        t.running)
  end

let attach ?period cluster =
  let t = create ?period cluster in
  start t;
  t

let stop t = t.running <- false
let samples t = t.samples

let mean_max s = [ Report.f2 (Summary.mean s); Report.f2 (Summary.max_value s) ]

let report t =
  if t.samples = 0 then ()
  else
    Report.table
      ~title:(Printf.sprintf "sampled gauges (%d samples, every %gs)" t.samples t.period)
      ~columns:[ "gauge"; "mean"; "max" ]
      [
        "tokens active (per SSD)" :: mean_max t.tokens_active;
        "token capacity (per SSD)" :: mean_max t.tokens_capacity;
        "waiting cmds (per partition)" :: mean_max t.waiting;
        "device inflight (per SSD)" :: mean_max t.dev_inflight;
        "outstanding RPCs (per client)" :: mean_max t.rpc_pending;
        "swapped segments (per vnode)" :: mean_max t.swapped;
        "event-heap depth" :: mean_max t.heap_depth;
      ]

(* A `top`-style instantaneous snapshot: one row per SSD across the
   cluster, straight off the live gauges. The queue and swap columns sum
   the SSD's own partitions only. *)
let top_columns =
  [ "ssd"; "tok"; "wait"; "inflight"; "exec"; "defer"; "deny"; "swap out/in"; "swapped" ]

let top_rows cluster =
  List.concat_map
    (fun n ->
      Array.to_list
        (Array.mapi
           (fun d s ->
             let stats = Engine.ssd_stats s in
             let sum f = Array.fold_left (fun acc p -> acc + f p) 0 (Engine.ssd_partitions s) in
             [
               Printf.sprintf "jbof%d/ssd%d" (Node.id n) d;
               Printf.sprintf "%d/%d" (Engine.active_tokens s) (Engine.token_capacity s);
               string_of_int (sum Engine.waiting_depth);
               string_of_int (Leed_blockdev.Blockdev.inflight (Engine.ssd_device s));
               string_of_int stats.Engine.executed;
               string_of_int stats.Engine.deferred;
               string_of_int stats.Engine.denied;
               Printf.sprintf "%d/%d" stats.Engine.swapped_out stats.Engine.swapped_in;
               string_of_int (sum Engine.swapped_segments);
             ])
           (Engine.ssds (Node.engine n))))
    (Cluster.nodes cluster)

let top cluster =
  Report.table
    ~title:(Printf.sprintf "cluster top @ t=%.3fs" (Sim.now ()))
    ~columns:top_columns (top_rows cluster)
