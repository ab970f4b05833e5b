(* FAWN-KV cluster: an array of wimpy embedded nodes (Raspberry Pi 3B+
   class) behind front-ends, with consistent hashing and *classic* chain
   replication — writes enter the head and propagate, reads are served by
   the tail only (no request shipping, no token flow control). This is the
   Embedded-FAWN comparison system of §4.3/§4.4, packaged behind the
   backend-generic service boundary (Leed_core.Backend.S). *)

open Leed_sim
open Leed_netsim
module Rpc = Netsim.Rpc
open Leed_platform
open Leed_core
open Leed_blockdev

type request =
  | FGet of { vn : Ring.vnode; key : string }
  | FWrite of { vn : Ring.vnode; key : string; value : bytes option; hop : int }

type response = FValue of bytes option | FOk | FErr

(* Modeled wire size in bytes: a 48-byte header plus key and value. *)
let wire_size = function
  | Rpc.Req (_, (FGet { key; _ } | FWrite { key; value = None; _ })) -> 48 + String.length key
  | Rpc.Req (_, FWrite { key; value = Some v; _ }) -> 48 + String.length key + Bytes.length v
  | Rpc.Resp (_, FValue (Some v)) -> 48 + Bytes.length v
  | Rpc.Resp (_, (FValue None | FOk | FErr)) -> 48

type config = {
  r : int;
  nnodes : int;
}

let default_config = { r = 3; nnodes = 10 }

let dram_for_index = 16 * 1024 * 1024 (* bounds each node's 6 B/object hash index *)

type node = {
  id : int;
  store : Fawn_store.t;
  dev : Blockdev.t;
  rpc : (request, response) Rpc.t;
  cpu : Sim.Resource.t;
  platform : Platform.t;
}

type t = {
  r : int;
  platform : Platform.t;
  ring : Ring.t;
  nodes : node array;
  fabric : (request, response) Rpc.wire Netsim.fabric;
  mutable next_client_id : int;
  mutable client_nacks : int; (* client-observed errors/timeouts *)
  mutable corrupt_reads : int; (* ops that hit a rotted entry (FErr, not a crash) *)
}

let name = "fawn"

let node_handler t (n : node) req =
  (* Network + request dispatch cycles on the embedded CPU. *)
  Platform.Cpu.execute_on n.platform n.cpu ~cycles:8000.;
  match req with
  | FGet { key; _ } -> (
      Platform.Cpu.execute_on n.platform n.cpu ~cycles:6000.;
      match Fawn_store.get n.store key with
      | v -> FValue v
      | exception (Fawn_store.Corrupt _ | Invalid_argument _) ->
          (* A rotted entry fails this one op with an error response; it
             must never tear down the node's RPC server. *)
          t.corrupt_reads <- t.corrupt_reads + 1;
          FErr
      | exception _ -> FErr)
  | FWrite { key; value; hop; vn = _ } -> (
      Platform.Cpu.execute_on n.platform n.cpu ~cycles:6000.;
      let apply () =
        match value with
        | Some v -> Fawn_store.put n.store key v
        | None -> Fawn_store.del n.store key
      in
      match apply () with
      | () ->
          (* Propagate down the chain. *)
          let chain = Ring.chain t.ring ~r:t.r key in
          if hop >= List.length chain - 1 then FOk
          else begin
            match List.nth_opt chain (hop + 1) with
            | None -> FOk
            | Some next ->
                let req =
                  FWrite { vn = next.Ring.owner; key; value; hop = hop + 1 }
                in
                let resp =
                  Rpc.call_timeout n.rpc ~dst:t.nodes.(next.Ring.owner.Ring.node).rpc
                    ~timeout:1.0 req
                in
                (match resp with Some FOk -> FOk | _ -> FErr)
          end
      | exception Fawn_store.Index_full -> FErr
      | exception (Fawn_store.Corrupt _ | Invalid_argument _) ->
          t.corrupt_reads <- t.corrupt_reads + 1;
          FErr)

let create ?(config = default_config) () =
  let platform = Platform.embedded_node in
  let fabric = Netsim.fabric ~base_latency_us:30.0 ~size:wire_size () in
  let ring = Ring.create () in
  let nodes =
    Array.init config.nnodes (fun id ->
        let dev = Blockdev.create ~rng:(Rng.create (77 + id)) platform.Platform.ssd in
        let log =
          Circular_log.create ~name:(Printf.sprintf "fawn%d.log" id) ~dev ~dev_id:0 ~base:0
            ~size:(Blockdev.capacity dev)
        in
        let store =
          Fawn_store.create
            ~config:{ Fawn_store.default_config with Fawn_store.dram_budget = dram_for_index }
            ~log ()
        in
        Fawn_store.run_flusher store;
        Fawn_store.run_compactor store;
        {
          id;
          store;
          dev;
          rpc = Rpc.create fabric ~name:(Printf.sprintf "pi%d" id) ~gbps:platform.Platform.nic_gbps;
          cpu = Sim.Resource.create ~name:(Printf.sprintf "pi%d.cpu" id) ~capacity:platform.Platform.cpu.Platform.cores ();
          platform;
        })
  in
  Array.iter
    (fun n ->
      let e = Ring.add ring { Ring.node = n.id; vidx = 0 } in
      e.Ring.vstate <- Ring.Running)
    nodes;
  let t =
    {
      r = min config.r config.nnodes;
      platform;
      ring;
      nodes;
      fabric;
      next_client_id = 0;
      client_nacks = 0;
      corrupt_reads = 0;
    }
  in
  Array.iter (fun n -> Rpc.serve n.rpc (node_handler t n)) nodes;
  t

(* Front-end client: forwards to the head (writes) or the tail (reads). *)
type client = { cluster : t; rpc : (request, response) Rpc.t }

let client t =
  let rpc = Rpc.create t.fabric ~name:(Printf.sprintf "fawn-fe%d" t.next_client_id) ~gbps:1.0 in
  t.next_client_id <- t.next_client_id + 1;
  { cluster = t; rpc }

let get c key =
  let t = c.cluster in
  match List.rev (Ring.chain t.ring ~r:t.r key) with
  | [] -> None
  | tail :: _ -> (
      let req = FGet { vn = tail.Ring.owner; key } in
      match
        Rpc.call_timeout c.rpc ~dst:t.nodes.(tail.Ring.owner.Ring.node).rpc ~timeout:1.0 req
      with
      | Some (FValue v) -> v
      | Some FOk | Some FErr | None ->
          t.client_nacks <- t.client_nacks + 1;
          None)

let write c key value =
  let t = c.cluster in
  match Ring.chain t.ring ~r:t.r key with
  | [] -> ()
  | head :: _ -> (
      let req = FWrite { vn = head.Ring.owner; key; value; hop = 0 } in
      match
        Rpc.call_timeout c.rpc ~dst:t.nodes.(head.Ring.owner.Ring.node).rpc ~timeout:1.0 req
      with
      | Some FOk -> ()
      | Some (FValue _) | Some FErr | None -> t.client_nacks <- t.client_nacks + 1)

let put c key value = write c key (Some value)
let del c key = write c key None

let total_objects t = Array.fold_left (fun acc n -> acc + Fawn_store.objects n.store) 0 t.nodes

(* Static membership, single-replica stores and no hedging, deadline or
   cache machinery: the baseline registers only device activity, client
   NACKs and corruption (which nacks the op; there is no repair path). *)
let counters t =
  Backend.device_counters (Array.to_list (Array.map (fun n -> n.dev) t.nodes))
  @ [
    ("client.nacks", Backend.Count t.client_nacks);
    ( "store.corrupt_reads",
      Count
        (t.corrupt_reads
        + Array.fold_left
            (fun acc n -> acc + (Fawn_store.counters n.store).Fawn_store.c_corrupt)
            0 t.nodes) );
  ]

let watts t ~util =
  float_of_int (Array.length t.nodes) *. Platform.wall_power t.platform ~util
