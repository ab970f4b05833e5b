(** Shared infrastructure for the paper-reproduction experiments: scaled
    platforms, backend-generic system builders, and the single
    closed-/open-loop measurement path every figure uses.

    All three systems (LEED, FAWN, KVell) are built, preloaded, driven,
    and measured through {!Leed_core.Backend} — an experiment names a
    backend, gets a {!setup}, and receives {!Leed_core.Backend.metrics}
    back; no per-system client shapes leak through. *)

open Leed_core

(** {1 Scaled platforms and store sizing} *)

val scale_ssd :
  ?capacity:int -> Leed_blockdev.Blockdev.profile -> Leed_blockdev.Blockdev.profile

val leed_platform : ?ssd_capacity:int -> unit -> Leed_platform.Platform.t
val server_platform : ?ssd_capacity:int -> unit -> Leed_platform.Platform.t
val pi_platform : unit -> Leed_platform.Platform.t

val store_config :
  ?nsegments:int ->
  ?subcompactions:int ->
  ?prefetch:bool ->
  unit ->
  Store.config

val engine_config :
  ?partitions_per_ssd:int ->
  ?swap:bool ->
  ?swap_threshold:int ->
  ?store_cfg:Store.config ->
  unit ->
  Engine.config

(** {1 Backend-generic setup} *)

type setup = { backend : Backend.t; clients : Backend.client list }

val attach_clients : ?nclients:int -> Backend.t -> setup
(** [nclients] front-end endpoints (default 4) on the given backend. *)

(** Packing helpers: lift a concrete cluster behind the service boundary. *)

val leed_backend : Cluster.t -> Backend.t
val fawn_backend : Leed_baselines.Fawn_cluster.t -> Backend.t
val kvell_backend : Leed_baselines.Kvell_cluster.t -> Backend.t

(** {1 System builders} *)

val make_leed_cluster :
  ?nnodes:int ->
  ?r:int ->
  ?crrs:bool ->
  ?flow_control:bool ->
  ?swap:bool ->
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
  ?r:int ->
  ?nclients:int ->
  ?crrs:bool ->
  ?flow_control:bool ->
  ?swap:bool ->
  ?cache:Netcache.config ->
  ?engine_cfg:Engine.config ->
  ?platform:Leed_platform.Platform.t ->
  unit ->
  setup

val make_fawn :
  ?nnodes:int -> ?r:int -> ?nclients:int -> unit -> setup

val make_kvell :
  ?nnodes:int ->
  ?r:int ->
  ?nclients:int ->
  ?object_size:int ->
  ?platform:Leed_platform.Platform.t ->
  unit ->
  setup

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
(** Load keys [0..nkeys-1] at version 0, 8-way parallel. *)

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
  ?drain:float ->
  label:string ->
  setup:setup ->
  rate:float ->
  duration:float ->
  gen:Leed_workload.Workload.gen ->
  unit ->
  Backend.metrics
(** Poisson arrivals at [rate] for [duration] simulated seconds. *)

val report_metrics : Backend.metrics -> unit
(** One-line dump of the unified metrics record. *)

(** {1 Energy and default sizes} *)

val cluster_watts : Leed_platform.Platform.t -> int -> float
(** The paper's measured wall power: per-platform watts × node count. *)

val queries_per_joule : throughput:float -> watts:float -> float

val time_scale : float ref
(** Global knob for quick runs: multiplies every measurement window
    ([bench fast] sets it below 1). *)

val dur : float -> float
(** [dur x = x *. !time_scale]. *)
