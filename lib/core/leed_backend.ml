(* LEED packaged as a Backend.S implementation: the whole-cluster
   assembly (Cluster) plus its front-end client library (Client) behind
   the backend-generic service boundary. *)

open Leed_platform
open Leed_netsim

type t = Cluster.t
type client = Client.t

let name = "leed"
let client = Cluster.client
let get = Client.get
let put = Client.put
let del = Client.del
let total_objects = Cluster.total_objects

let counters t =
  let nodes = Cluster.nodes t and clients = Cluster.clients t in
  let engines = List.map Node.engine nodes in
  let each f = List.concat_map (fun e -> Array.to_list (f e)) engines in
  let total f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let per_node f = total (fun n -> f (Node.stats n)) nodes in
  let cs = Control.stats (Cluster.control t) in
  let fabric = Netsim.fabric_stats (Cluster.fabric t) in
  Backend.device_counters (each Engine.devices)
  @ [
    ("client.nacks", Backend.Count (total Client.nacks clients));
    ("client.retries", Count (total Client.retries clients));
    ( "client.backoff_s",
      Sum (List.fold_left (fun acc c -> acc +. Client.backoff_time c) 0. clients) );
    ("client.hedges", Count (total Client.hedges clients));
    ("client.hedge_wins", Count (total Client.hedge_wins clients));
    ("client.sheds", Count (total Client.sheds clients));
    ("client.quorum_rounds", Count (total Client.quorum_rounds clients));
    ("client.writebacks", Count (total Client.writebacks clients));
    ("control.joins", Count cs.Control.n_joins);
    ("control.leaves", Count cs.Control.n_leaves);
    ("control.failures_handled", Count cs.Control.n_failures_handled);
    ("control.slow_events", Count cs.Control.n_slow_events);
    ("node.read_repairs", Count (per_node (fun s -> s.Node.n_read_repairs)));
    ("node.scrubbed_segments", Count (per_node (fun s -> s.Node.n_scrubbed_segments)));
    ("node.scrub_repairs", Count (per_node (fun s -> s.Node.n_scrub_repairs)));
    ("node.write_applies", Count (per_node (fun s -> s.Node.n_write_applies)));
    ( "store.corrupt_reads",
      Count
        (total (fun p -> (Store.counters (Engine.store p)).Store.corrupt) (each Engine.partitions))
    );
    ("engine.sheds", Count (total (fun s -> (Engine.ssd_stats s).Engine.shed) (each Engine.ssds)));
    ("netsim.dropped", Count fabric.Netsim.dropped);
    ("netsim.delayed", Count fabric.Netsim.delayed);
    ("netsim.consumed", Count fabric.Netsim.consumed);
  ]
  @
  match Cluster.cache t with
  | None -> []
  | Some c ->
      let s = Netcache.stats c in
      [
        ("netcache.hits", Count s.Netcache.hits);
        ("netcache.misses", Count s.Netcache.misses);
        ("netcache.invalidations", Count s.Netcache.invalidations);
        ("netcache.sprays", Count s.Netcache.sprays);
        ("netcache.hot_groups", Gauge s.Netcache.hot_groups);
      ]

let watts t ~util =
  let nnodes = List.length (Cluster.nodes t) in
  float_of_int nnodes *. Platform.wall_power (Cluster.config t).Cluster.platform ~util
