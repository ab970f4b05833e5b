(* Shared infrastructure for the paper-reproduction experiments.

   Scaling: the paper loads 1.6 B objects per store onto 4×960 GB of
   flash; the simulation preserves every *ratio* that matters (index bytes
   per object, accesses per command, device service times, CPU cycles per
   op, power per platform) while scaling object counts and device capacity
   down so a full figure regenerates in seconds. Absolute throughput is
   therefore lower than the testbed's; who-wins and by-roughly-what-factor
   is preserved.

   Every system is driven through the backend-generic service boundary
   (Backend.S / Backend.t): one setup shape, one preload, one
   closed-/open-loop measurement path returning the unified
   Backend.metrics record. *)

open Leed_core
open Leed_platform
open Leed_workload
module Driver = Workload.Driver
open Leed_baselines
open Leed_blockdev

(* --- scaled platforms --- *)

let leed_platform ?(ssd_capacity = 512 * 1024 * 1024) () =
  { Platform.smartnic_jbof with Platform.ssd = Blockdev.with_capacity Blockdev.dct983 ssd_capacity }

let server_platform ?(ssd_capacity = 512 * 1024 * 1024) () =
  { Platform.server_jbof with Platform.ssd = Blockdev.with_capacity Blockdev.dct983 ssd_capacity }

let pi_platform () =
  {
    Platform.embedded_node with
    Platform.ssd = Blockdev.with_capacity Blockdev.sandisk_sd (128 * 1024 * 1024);
  }

(* Store sizing for scaled runs: enough segments that chains stay short at
   the experiment object counts. *)
let store_config ?(nsegments = 4096) () = { Store.default_config with Store.nsegments }

let engine_config ?(swap = true) ?(swap_threshold = 24) ?store_cfg () =
  {
    Engine.default_config with
    Engine.swap_enabled = swap;
    swap_threshold;
    store_config = Option.value store_cfg ~default:(store_config ());
  }

(* --- backend-generic setup --- *)

type setup = { backend : Backend.t; clients : Backend.client list }

let attach_clients ?(nclients = 4) backend =
  { backend; clients = List.init nclients (fun _ -> Backend.client backend) }

(* Packing helpers: one per system, so harness code that already holds a
   concrete cluster can lift it behind the service boundary. *)

let leed_backend cluster =
  Backend.pack
    (module Leed_backend : Backend.S with type t = Cluster.t and type client = Client.t)
    cluster

let fawn_backend cluster =
  Backend.pack
    (module Fawn_cluster : Backend.S
      with type t = Fawn_cluster.t
       and type client = Fawn_cluster.client)
    cluster

let kvell_backend cluster =
  Backend.pack
    (module Kvell_cluster : Backend.S
      with type t = Kvell_cluster.t
       and type client = Kvell_cluster.client)
    cluster

(* --- system builders --- *)

(* The raw LEED cluster, for experiments that poke cluster-level machinery
   (fig9's join/leave) in addition to serving ops through the boundary. *)
let make_leed_cluster ?(nnodes = 3) ?(crrs = true) ?(flow_control = true) ?cache ?engine_cfg
    ?platform () =
  let platform = Option.value platform ~default:(leed_platform ()) in
  let engine_cfg = Option.value engine_cfg ~default:(engine_config ()) in
  let client_config = { Client.default_config with Client.crrs; flow_control } in
  let cache = Option.value cache ~default:Cluster.default_config.Cluster.cache in
  let config =
    { Cluster.default_config with Cluster.nnodes; engine_config = engine_cfg; client_config;
      platform; cache }
  in
  Cluster.create ~config ()

let setup_of_cluster ?nclients cluster = attach_clients ?nclients (leed_backend cluster)

let make_leed ?nnodes ?nclients ?crrs ?flow_control ?cache ?engine_cfg ?platform () =
  setup_of_cluster ?nclients
    (make_leed_cluster ?nnodes ?crrs ?flow_control ?cache ?engine_cfg ?platform ())

let make_fawn ?(nnodes = 10) ?nclients () =
  let config = { Fawn_cluster.default_config with Fawn_cluster.nnodes } in
  attach_clients ?nclients (fawn_backend (Fawn_cluster.create ~config ()))

let make_kvell ?(nnodes = 3) ?nclients ?(object_size = 1024) ?platform () =
  let platform = Option.value platform ~default:(server_platform ()) in
  let store_config =
    {
      Kvell_store.default_config with
      Kvell_store.nworkers = 32;
      slot_size = object_size + 64;
      dram_budget = 8 * 1024 * 1024;
      (* The Xeon's OoO core + cache hierarchy favours KVell's index
         lookups beyond the generic per-cycle factor; calibrated so
         Server-KVell peaks a few x above SmartNIC-LEED as in Fig. 6. *)
      index_cycles = 40_000.;
    }
  in
  let config = { Kvell_cluster.default_config with Kvell_cluster.nnodes; platform; store_config } in
  attach_clients ?nclients (kvell_backend (Kvell_cluster.create ~config ()))

(* --- the three compared systems (Figures 5, 6 and 14) --- *)

type system = { name : string; make : unit -> setup; nkeys : int; workers : int }

let compared_systems ~object_size =
  [
    { name = "leed"; make = (fun () -> make_leed ~nclients:6 ()); nkeys = 8_000; workers = 192 };
    {
      (* KVell's batched workers need deep client concurrency to reach
         their (much higher) saturation point. *)
      name = "kvell";
      make = (fun () -> make_kvell ~nclients:6 ~object_size ());
      nkeys = 8_000;
      workers = 640;
    };
    {
      name = "fawn";
      make = (fun () -> make_fawn ~nnodes:10 ~nclients:6 ());
      nkeys = 2_000;
      workers = 40;
    };
  ]

let backend_names = [ "leed"; "fawn"; "kvell" ]

let setup_of_name ?nclients ?nnodes ?ssds name =
  (* [ssds] rebuilds the backend's default platform with that many drives
     per JBOF; FAWN nodes model a single flash device, so it is ignored
     there. *)
  let platform_with base =
    Option.map (fun n -> { base with Platform.ssd_count = n }) ssds
  in
  match name with
  | "leed" -> make_leed ?nclients ?nnodes ?platform:(platform_with (leed_platform ())) ()
  | "fawn" -> make_fawn ?nclients ?nnodes ()
  | "kvell" -> make_kvell ?nclients ?nnodes ?platform:(platform_with (server_platform ())) ()
  | name -> invalid_arg (Printf.sprintf "unknown backend %S (try: %s)" name (String.concat "/" backend_names))

(* --- driving --- *)

(* Round-robin an op stream over the setup's front-end endpoints. *)
let rr_execute setup = Driver.round_robin Backend.execute setup.clients

let preload setup ~nkeys ~value_size =
  match setup.clients with
  | [] -> invalid_arg "preload: setup has no clients"
  | c :: _ ->
      Driver.spread ~workers:8 ~n:nkeys (fun id ->
          Backend.put c (Workload.key_of_id id) (Workload.value_for ~id ~version:0 ~size:value_size))

(* --- one bare JBOF: the intra-JBOF engine without cluster or clients --- *)

let jbof_engine ?(config = engine_config ()) () =
  let e = Engine.create ~config (leed_platform ()) in
  Engine.start e;
  let npart = Engine.npartitions e in
  (e, fun id -> Codec.hash_key (Workload.key_of_id id) mod npart)

(* --- measurement: one path for every backend --- *)

let measure_closed ~label ~setup ~clients ~duration ~gen () =
  Backend.measure ~label setup.backend (fun () ->
      Driver.closed_loop ~clients ~duration ~gen ~execute:(rr_execute setup) ())

let measure_open ~label ~setup ~rate ~duration ~gen () =
  Backend.measure ~label setup.backend (fun () ->
      Driver.open_loop ~rate ~duration ~gen ~execute:(rr_execute setup) ())

let report_metrics (m : Backend.metrics) =
  Printf.printf
    "  %-18s %8.1f KQPS  avg %6.3f ms  p99 %6.3f ms  p99.9 %6.3f ms  nvme %8d  nacks %5d  retries %5d  %6.1f W  %6.2f KQ/J\n"
    m.Backend.label
    (m.Backend.throughput /. 1e3)
    (m.Backend.avg_lat *. 1e3)
    (m.Backend.p99 *. 1e3)
    (m.Backend.p999 *. 1e3)
    (Backend.nvme_accesses m.Backend.counters)
    (Backend.count m.Backend.counters "client.nacks")
    (Backend.count m.Backend.counters "client.retries")
    m.Backend.watts
    (m.Backend.queries_per_joule /. 1e3)

let on_off_over_skew ~title point =
  let points on = List.map (point on) Workload.skew_sweep in
  let on = points true and off = points false in
  let col = List.map in
  Leed_stats.Report.series ~title ~x_label:"skew"
    ~xs:(List.map string_of_float Workload.skew_sweep)
    [
      ("thr-KQPS w/", col (fun m -> m.Backend.throughput /. 1e3) on);
      ("thr-KQPS w/o", col (fun m -> m.Backend.throughput /. 1e3) off);
      ("avg-ms w/", col (fun m -> m.Backend.avg_lat *. 1e3) on);
      ("avg-ms w/o", col (fun m -> m.Backend.avg_lat *. 1e3) off);
      ("p999-ms w/", col (fun m -> m.Backend.p999 *. 1e3) on);
      ("p999-ms w/o", col (fun m -> m.Backend.p999 *. 1e3) off);
    ]

let dur ~fast x = if fast then x *. 0.3 else x
