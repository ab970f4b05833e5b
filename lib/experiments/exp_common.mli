(** Shared infrastructure for the paper-reproduction experiments: scaled
    platforms, backend-generic system builders, and the single
    closed-/open-loop measurement path every figure uses.

    All three systems (LEED, FAWN, KVell) are built, preloaded, driven,
    and measured through {!Leed_core.Backend} — an experiment names a
    backend, gets a {!setup}, and receives {!Leed_core.Backend.metrics}
    back; no per-system client shapes leak through. *)

open Leed_core

(** {1 Scaled platforms and store sizing} *)

val leed_platform : ?ssd_capacity:int -> unit -> Leed_platform.Platform.t
val pi_platform : unit -> Leed_platform.Platform.t

val store_config : ?nsegments:int -> unit -> Store.config

val engine_config :
  ?swap:bool ->
  ?swap_threshold:int ->
  ?store_cfg:Store.config ->
  unit ->
  Engine.config

(** {1 Backend-generic setup} *)

type setup = { backend : Backend.t; clients : Backend.client list }

(** Packing helpers: lift a concrete cluster behind the service boundary. *)

val leed_backend : Cluster.t -> Backend.t

(** {1 System builders} *)

val make_leed_cluster :
  ?nnodes:int ->
  ?crrs:bool ->
  ?flow_control:bool ->
  ?cache:Netcache.config ->
  ?engine_cfg:Engine.config ->
  ?platform:Leed_platform.Platform.t ->
  unit ->
  Cluster.t
(** The raw LEED cluster, for experiments that poke cluster-level
    machinery (fig9's join/leave) in addition to serving ops through the
    boundary. [cache] arms the in-network cache when its mode is
    [Ttl_lru] (default off). *)

val setup_of_cluster : ?nclients:int -> Cluster.t -> setup

val make_leed :
  ?nnodes:int ->
  ?nclients:int ->
  ?crrs:bool ->
  ?flow_control:bool ->
  ?cache:Netcache.config ->
  ?engine_cfg:Engine.config ->
  ?platform:Leed_platform.Platform.t ->
  unit ->
  setup

val make_fawn : ?nnodes:int -> ?nclients:int -> unit -> setup

val make_kvell :
  ?nnodes:int ->
  ?nclients:int ->
  ?object_size:int ->
  ?platform:Leed_platform.Platform.t ->
  unit ->
  setup

(** {1 The compared systems} *)

type system = {
  name : string;  (** ["leed"], ["kvell"] or ["fawn"] *)
  make : unit -> setup;
  nkeys : int;  (** keys preloaded and drawn from *)
  workers : int;  (** closed-loop workers that saturate the system *)
}

val compared_systems : object_size:int -> system list
(** The systems Figures 5, 6 and 14 compare, sized for [object_size]-byte
    objects: SmartNIC-LEED (3 JBOFs), Server-KVell (3 JBOFs, slots sized
    to the objects) and Embedded-FAWN (10 Pi nodes), each behind 6
    front-end clients, in that order. Each figure keeps its own seeds and
    measurement windows. *)

val backend_names : string list
(** ["leed"; "fawn"; "kvell"] — selector names for CLIs. *)

val setup_of_name : ?nclients:int -> ?nnodes:int -> ?ssds:int -> string -> setup
(** Build a system by selector name with its comparison-default sizing;
    raises [Invalid_argument] on an unknown name. [nnodes] overrides the
    cluster size (JBOF count) and [ssds] the drives per JBOF — the
    cluster-scale knobs behind [leed smoke --jbofs/--ssds]. FAWN nodes
    model a single flash device, so [ssds] is ignored there. *)

(** {1 Driving and measuring} *)

val rr_execute : setup -> Leed_workload.Workload.op -> unit
(** Round-robin an op stream over the setup's front-end endpoints. *)

val preload : setup -> nkeys:int -> value_size:int -> unit
(** Load keys [0..nkeys-1] at version 0, 8-way parallel
    ({!Leed_workload.Workload.Driver.spread}). *)

val jbof_engine : ?config:Engine.config -> unit -> Engine.t * (int -> int)
(** A started intra-JBOF engine on {!leed_platform} (default
    {!engine_config}), with no cluster around it, and the map from a key
    id to its home partition: what Figures 10–12 and Table 3 measure. *)

val measure_closed :
  label:string ->
  setup:setup ->
  clients:int ->
  duration:float ->
  gen:Leed_workload.Workload.gen ->
  unit ->
  Backend.metrics
(** [clients] closed-loop workers for [duration] simulated seconds;
    counters and power are captured from the setup's backend. *)

val measure_open :
  label:string ->
  setup:setup ->
  rate:float ->
  duration:float ->
  gen:Leed_workload.Workload.gen ->
  unit ->
  Backend.metrics
(** Poisson arrivals at [rate] for [duration] simulated seconds, with
    {!Leed_workload.Workload.Driver.open_loop}'s default drain. *)

val report_metrics : Backend.metrics -> unit
(** One-line dump of the unified metrics record. *)

val on_off_over_skew : title:string -> (bool -> float -> Backend.metrics) -> unit
(** Print one series over {!Leed_workload.Workload.skew_sweep}:
    throughput, average and p99.9 latency with a mechanism on ("w/") and
    off ("w/o"). [point on skew] measures one cell; every "on" cell is
    measured before the first "off" one. *)

(** {1 Measurement windows} *)

val dur : fast:bool -> float -> float
(** A measurement window of [x] seconds, cut to 30% for quick runs
    ([~fast], from [leed experiment --fast] and [bench/main.exe fast]). *)
