(* Whole-cluster assembly (Figure 2-a): back-end SmartNIC JBOFs, the
   control-plane manager, and front-end clients on one switched fabric.
   This is the top-level entry point of the library: build a cluster, get
   clients, issue requests. *)

open Leed_sim
open Leed_netsim
module Rpc = Netsim.Rpc
open Leed_platform
module Trace = Leed_trace.Trace

type config = {
  nnodes : int;
  r : int;
  proto : Replication.proto; (* replication protocol on every vnode *)
  engine_config : Engine.config;
  client_config : Client.config;
  platform : Platform.t;
  heartbeat_period : float;   (* failure-detector probe period (§3.8.2) *)
  cache : Netcache.config;    (* in-network cache (§15); default Off *)
}

let default_config =
  {
    nnodes = 3;
    r = 3;
    proto = Replication.Crrs;
    engine_config = Engine.default_config;
    client_config = Client.default_config;
    platform = Platform.smartnic_jbof;
    heartbeat_period = 0.2;
    cache = Netcache.default_config;
  }

type t = {
  config : config;
  fabric : (Messages.request, Messages.response) Rpc.wire Netsim.fabric;
  control : Control.t;
  cache : Netcache.t option; (* armed in-network cache, when configured *)
  clients_track : Trace.track; (* one shared row for all front-end clients *)
  (* newest first: membership changes prepend (appending to a growing
     list is quadratic); the accessors below restore arrival order *)
  mutable nodes_rev : Node.t list;
  mutable next_node_id : int;
  mutable next_client_id : int;
}

(* --- CRRS chain-order sanitizer (§3.7) ---
   Two layers. The *structural* check is race-free and runs automatically
   after every membership change: a key's replica chain must never repeat
   a physical node nor exceed R entries — a repeated node silently halves
   the real replication factor, which is exactly the failure mode a broken
   ring rebuild produces. The *agreement* check reads every replica of a
   key directly through the engines (bypassing the network) and requires
   identical committed values; it races with in-flight writes by nature,
   so it is only meaningful at quiescent points and callers invoke it
   explicitly. *)

let require_chain_structure t ~key chain =
  let nodes = List.map (fun (e : Ring.entry) -> e.Ring.owner.Ring.node) chain in
  Invariant.require ~invariant:"crrs-chain-order" ~time:(Sim.now ())
    (List.length chain <= t.config.r
    && List.length (List.sort_uniq compare nodes) = List.length nodes)
    ~detail:(fun () ->
      Printf.sprintf
        "replica chain for key %S has %d entries on nodes [%s] (r=%d): physical \
         nodes must be distinct and the chain at most R long"
        key (List.length chain)
        (String.concat ";" (List.map string_of_int nodes))
        t.config.r)

let check_chain_order t key =
  if Invariant.active () then
    require_chain_structure t ~key (Ring.chain (Control.ring t.control) ~r:t.config.r key)

(* Deterministic probe keys spread over the ring. *)
let check_chain_structure t =
  if Invariant.active () then
    for i = 0 to 15 do
      check_chain_order t (Printf.sprintf "chain-probe-%d" i)
    done

let check_replica_agreement t key =
  (* CRRS-only: ABD guarantees a majority intersection, not identical
     replicas — a minority replica legitimately lags until the next read
     writes the winning tag back, so engine-level equality would
     false-positive. *)
  if Invariant.active () && t.config.proto = Replication.Crrs then begin
    let chain = Ring.chain (Control.ring t.control) ~r:t.config.r key in
    require_chain_structure t ~key chain;
    let replicas =
      List.map (fun (e : Ring.entry) -> (e, Control.node t.control e.Ring.owner.Ring.node)) chain
    in
    let dirty () =
      List.exists
        (fun ((e : Ring.entry), n) ->
          Node.is_key_dirty n ~vidx:e.Ring.owner.Ring.vidx key
          || Node.is_key_tainted n ~vidx:e.Ring.owner.Ring.vidx key)
        replicas
    in
    if not (dirty ()) then begin
      let reads =
        List.map
          (fun ((e : Ring.entry), n) ->
            match Engine.submit (Node.engine n) ~pid:e.Ring.owner.Ring.vidx (Engine.Get key) with
            | Ok (Some v) -> `Value v
            | Ok None -> `Missing
            | Error Engine.Corrupt -> `Corrupt
            | Error (Engine.Failed | Engine.Shed | Engine.Overloaded) -> `Unknown)
          replicas
      in
      (* A write may have raced the reads; only judge if the key stayed
         clean across the whole sweep and every replica answered. A
         Corrupt replica is a data fault, not a replication-order bug:
         it is the scrubber/read-repair's job, so it does not trip the
         chain invariant here. *)
      if (not (dirty ())) && (not (List.mem `Unknown reads)) && not (List.mem `Corrupt reads)
      then
        match reads with
        | [] | [ _ ] -> ()
        | first :: rest ->
            List.iteri
              (fun i r ->
                Invariant.require ~invariant:"crrs-chain-order" ~time:(Sim.now ())
                  (r = first)
                  ~detail:(fun () ->
                    let show = function
                      | `Value v -> Printf.sprintf "%d bytes" (Bytes.length v)
                      | `Missing -> "missing"
                      | `Corrupt -> "corrupt"
                      | `Unknown -> "unknown"
                    in
                    Printf.sprintf
                      "replicas of key %S disagree: chain head holds %s but \
                       replica %d holds %s"
                      key (show first) (i + 1) (show r)))
              rest
    end
  end

(* A fresh node under the next id, its NIC already serving. *)
let start_node t =
  let n =
    Node.create ~proto:t.config.proto ~id:t.next_node_id ~platform:t.config.platform
      ~fabric:t.fabric ~engine_config:t.config.engine_config ~r:t.config.r ()
  in
  t.next_node_id <- t.next_node_id + 1;
  Node.start n;
  n

let create ?(config = default_config) () =
  let fabric = Netsim.fabric ~size:Messages.wire_size () in
  let control =
    Control.create ~r:config.r ~proto:config.proto ~heartbeat_period:config.heartbeat_period
      ~slow_detection:config.client_config.Client.gray_defenses fabric
  in
  let cache =
    match config.cache.Netcache.mode with
    | Netcache.Off -> None
    | Netcache.Ttl_lru -> Some (Netcache.attach ~config:config.cache fabric)
  in
  let t =
    {
      config;
      fabric;
      control;
      cache;
      clients_track = Trace.new_track "clients";
      nodes_rev = [];
      next_node_id = 0;
      next_client_id = 0;
    }
  in
  for _ = 1 to config.nnodes do
    let n = start_node t in
    Control.register_bootstrap_node control n;
    t.nodes_rev <- n :: t.nodes_rev
  done;
  Control.finish_bootstrap control;
  Control.start control;
  check_chain_structure t;
  t

let control t = t.control
let config t = t.config
let nodes t = List.rev t.nodes_rev
let clients t = Control.clients t.control
let node t id = Control.node t.control id
let fabric t = t.fabric
let cache t = t.cache

(* A new front-end client with its own NIC endpoint, ring watch, and a
   deterministic per-client jitter stream (seeded off its id so two
   clients never share a backoff sequence). *)
let client t =
  let c =
    Client.create ~config:t.config.client_config
      ~r:t.config.r ~proto:t.config.proto
      ~rng:(Rng.create (40000 + t.next_client_id))
      ~track:t.clients_track ~fabric:t.fabric
      ~name:(Printf.sprintf "client%d" t.next_client_id)
      ~peer:(Control.peer_resolver t.control)
      ~refresh:(fun () -> Control.snapshot t.control)
      ~writer:(1 + t.next_client_id) ()
  in
  t.next_client_id <- t.next_client_id + 1;
  Control.register_client t.control c;
  c

(* Grow the cluster: full §3.8.1 join protocol (JOINING → COPY → RUNNING).
   Returns the number of key-value pairs copied. *)
let add_node t =
  let n = start_node t in
  let copied = Control.join t.control n in
  t.nodes_rev <- n :: t.nodes_rev;
  check_chain_structure t;
  (n, copied)

(* Graceful departure (§3.8.1). *)
let remove_node t id =
  let copied = Control.leave t.control id in
  t.nodes_rev <- List.filter (fun n -> Node.id n <> id) t.nodes_rev;
  check_chain_structure t;
  copied

(* Fail-stop crash (§3.8.2): the node's NIC goes dark; the heartbeat
   monitor notices and repairs the chains. *)
let crash_node t id =
  Node.crash (node t id)

(* Crash-restart (§3.8.2): replay the node's logs and re-admit it. The
   node object survives in [nodes_rev] even after the failure detector
   expels it from the control plane's membership, so restart works both
   before fail-out (fast revive) and after (full rejoin with COPY).
   Blocks — run from a spawned process. Returns pairs copied. *)
let restart_node t id =
  match List.find_opt (fun n -> Node.id n = id) t.nodes_rev with
  | None -> invalid_arg (Printf.sprintf "Cluster.restart_node: unknown node %d" id)
  | Some n ->
      let copied = Control.restart t.control n in
      check_chain_structure t;
      copied

(* Aggregate count of objects across all stores (for capacity checks). *)
let total_objects t =
  List.fold_left
    (fun acc n ->
      Array.fold_left
        (fun acc p -> acc + Store.objects (Engine.store p))
        acc
        (Engine.partitions (Node.engine n)))
    0 t.nodes_rev
