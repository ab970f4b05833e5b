(* KVell over server JBOFs, clustered: KVell itself is single-node, so the
   comparison deployment (§4.3, replication factor 3) replicates on the
   client side — a write goes to the R nodes owning the key, a read to the
   primary. Each node runs the shared-nothing KVell store over its full
   SSD array with workers pinned to Xeon cores. Packaged behind the
   backend-generic service boundary (Leed_core.Backend.S). *)

open Leed_sim
open Leed_netsim
module Rpc = Netsim.Rpc
open Leed_platform
open Leed_core
open Leed_blockdev

type request = KGet of string | KPut of string * bytes | KDel of string

type response = KValue of bytes option | KOk | KErr

(* Modeled wire size in bytes: a 48-byte header plus key and value. *)
let wire_size = function
  | Rpc.Req (_, (KGet key | KDel key)) -> 48 + String.length key
  | Rpc.Req (_, KPut (key, v)) -> 48 + String.length key + Bytes.length v
  | Rpc.Resp (_, KValue (Some v)) -> 48 + Bytes.length v
  | Rpc.Resp (_, (KValue None | KOk | KErr)) -> 48

type config = {
  r : int;
  nnodes : int;
  platform : Platform.t;
  store_config : Kvell_store.config;
}

let default_config =
  { r = 3; nnodes = 3; platform = Platform.server_jbof; store_config = Kvell_store.default_config }

type node = {
  id : int;
  store : Kvell_store.t;
  devs : Blockdev.t array;
  rpc : (request, response) Rpc.t;
  cores : Sim.Resource.t array; (* shared-nothing: one core per worker *)
  platform : Platform.t;
}

type t = {
  r : int;
  platform : Platform.t;
  nodes : node array;
  fabric : (request, response) Rpc.wire Netsim.fabric;
  mutable next_client_id : int;
  mutable client_nacks : int; (* client-observed errors/timeouts *)
}

let name = "kvell"

let node_handler (n : node) req =
  match req with
  | KGet key -> (
      match Kvell_store.get n.store key with
      | v -> KValue v
      | exception Kvell_store.Corrupt _ ->
          (* a rotted slot fails this one op with an error response; the
             store counts it *)
          KErr
      | exception _ -> KErr)
  | KPut (key, v) -> (
      match Kvell_store.put n.store key v with
      | () -> KOk
      | exception (Kvell_store.Dram_full | Kvell_store.Slab_full | Invalid_argument _) -> KErr)
  | KDel key -> (
      match Kvell_store.del n.store key with () -> KOk | exception _ -> KErr)

let create ?(config = default_config) () =
  let platform = config.platform in
  let fabric = Netsim.fabric ~base_latency_us:3.0 ~size:wire_size () in
  let nodes =
    Array.init config.nnodes (fun id ->
        let devs =
          Array.init platform.Platform.ssd_count (fun d ->
              Blockdev.create ~rng:(Rng.create ((id * 100) + d)) platform.Platform.ssd)
        in
        let nworkers =
          min config.store_config.Kvell_store.nworkers platform.Platform.cpu.Platform.cores
        in
        let cores = Array.init nworkers (fun w -> Platform.Cpu.pinned_core platform w) in
        let store_config =
          {
            config.store_config with
            Kvell_store.nworkers;
            charge =
              (fun wid cycles -> Platform.Cpu.execute_on platform cores.(wid mod nworkers) ~cycles);
          }
        in
        {
          id;
          store = Kvell_store.create ~config:store_config ~devs ();
          devs;
          rpc = Rpc.create fabric ~name:(Printf.sprintf "kvell%d" id) ~gbps:platform.Platform.nic_gbps;
          cores;
          platform;
        })
  in
  let t =
    {
      r = min config.r config.nnodes;
      platform;
      nodes;
      fabric;
      next_client_id = 0;
      client_nacks = 0;
    }
  in
  Array.iter (fun n -> Rpc.serve n.rpc (node_handler n)) t.nodes;
  t

(* Replica set of a key: R consecutive nodes starting at hash(key). *)
let replicas t key =
  let n = Array.length t.nodes in
  let start = Codec.hash_key key mod n in
  List.init t.r (fun i -> t.nodes.((start + i) mod n))

type client = { cluster : t; rpc : (request, response) Rpc.t }

let client t =
  let rpc = Rpc.create t.fabric ~name:(Printf.sprintf "kvell-cli%d" t.next_client_id) ~gbps:100.0 in
  t.next_client_id <- t.next_client_id + 1;
  { cluster = t; rpc }

let get c key =
  match replicas c.cluster key with
  | [] -> None
  | primary :: _ -> (
      match Rpc.call_timeout c.rpc ~dst:primary.rpc ~timeout:1.0 (KGet key) with
      | Some (KValue v) -> v
      | Some KOk | Some KErr | None ->
          c.cluster.client_nacks <- c.cluster.client_nacks + 1;
          None)

let put c key value =
  let results =
    List.map
      (fun (n : node) () ->
        match Rpc.call_timeout c.rpc ~dst:n.rpc ~timeout:1.0 (KPut (key, value)) with
        | Some KOk -> ()
        | Some (KValue _) | Some KErr | None ->
            c.cluster.client_nacks <- c.cluster.client_nacks + 1)
      (replicas c.cluster key)
  in
  Sim.fork_join results

let del c key =
  List.iter
    (fun (n : node) ->
      match Rpc.call_timeout c.rpc ~dst:n.rpc ~timeout:1.0 (KDel key) with
      | Some KOk -> ()
      | Some (KValue _) | Some KErr | None ->
          c.cluster.client_nacks <- c.cluster.client_nacks + 1)
    (replicas c.cluster key)

let total_objects t = Array.fold_left (fun acc n -> acc + Kvell_store.objects n.store) 0 t.nodes

(* Static membership, client-side replication without a retry loop,
   single-replica stores and no hedging, deadline or cache machinery: the
   baseline registers only device activity, client NACKs and corruption
   (which nacks the op; there is no repair path). *)
let counters t =
  Backend.device_counters (List.concat_map (fun n -> Array.to_list n.devs) (Array.to_list t.nodes))
  @ [
    ("client.nacks", Backend.Count t.client_nacks);
    ( "store.corrupt_reads",
      Count (Array.fold_left (fun acc n -> acc + Kvell_store.corrupt_reads n.store) 0 t.nodes) );
  ]

let watts t ~util =
  float_of_int (Array.length t.nodes) *. Platform.wall_power t.platform ~util
