(** The backend-generic KV service boundary.

    The paper's whole evaluation (§4, Figs 5–14, Table 3) is comparative —
    LEED vs FAWN vs KVell per-watt and per-dollar — so every system must
    expose the same service surface: client acquisition, the three data
    operations, object accounting, and a uniform registry of named
    counters. A system implements {!S} and keeps its own config and
    constructor (each system's are different, and nothing builds a
    system through the signature); callers that do not care which system
    they drive hold a packed {!t} / {!client} and use the generic
    operations below.

    Implementations: [Leed_backend] (this library),
    [Leed_baselines.Fawn_cluster], and [Leed_baselines.Kvell_cluster].
    Adding a backend = implement {!S}, then {!pack} it (see DESIGN.md
    "How to add a backend"). *)

(** {1 Named counters}

    Every backend reports its cumulative service counters as one ordered
    list of [(name, value)] pairs. A name is ["layer.what"]: the layer
    prefix ([blockdev], [client], [control], [node], [store], [engine],
    [netsim], [netcache]) says where the count is kept. A backend
    registers only the counters it has; a name it did not register reads
    as 0, which is what "this system has no such mechanism" means for the
    comparison. LEED's names (see {!Leed_backend}) are a superset of the
    baselines'. *)

type value =
  | Count of int  (** a monotone count; {!diff} subtracts *)
  | Sum of float  (** a monotone float total, e.g. seconds; {!diff} subtracts *)
  | Gauge of int  (** a level, not a count; {!diff} keeps the [after] value *)

type counters = (string * value) list
(** In registration order, each name at most once. *)

val count : counters -> string -> int
(** The value of a [Count] or [Gauge]; 0 when [name] is not registered.
    Raises [Invalid_argument] on a [Sum]. *)

val sum : counters -> string -> float
(** The value of a [Sum]; 0. when [name] is not registered. Raises
    [Invalid_argument] on a [Count] or [Gauge]. *)

val diff : after:counters -> before:counters -> counters
(** The window delta, in [after]'s order: counts and sums subtract
    (a name missing from [before] counts from 0), gauges keep [after]. *)

val nvme_accesses : counters -> int
(** [blockdev.reads + blockdev.writes]: block-device commands (§3.3
    accesses). *)

val sheds : counters -> int
(** [client.sheds + engine.sheds]: deadline sheds, client abandonments
    plus engine-side expired-queue drops. *)

val device_counters : Leed_blockdev.Blockdev.t list -> counters
(** [blockdev.reads], [blockdev.writes] and [blockdev.busy_s] of a
    system's drives: commands summed over the drives, busy seconds
    averaged over them (0 with no drive), summed in list order. *)

(** The unified measurement record: driver-side load numbers combined
    with the backend's counter deltas and its modeled wall power. *)
type metrics = {
  label : string;
  ops : int;
  duration : float;          (** simulated seconds of the window *)
  throughput : float;        (** ops/s *)
  latency : Leed_stats.Histogram.t;
  avg_lat : float;           (** seconds *)
  p99 : float;
  p999 : float;
  counters : counters;       (** the backend's counter deltas over the window ({!diff}) *)
  watts : float;             (** modeled cluster wall power (paper's meters) *)
  queries_per_joule : float; (** throughput / watts — the paper's headline *)
}

(** What a KV system must provide to be comparable. *)
module type S = sig
  type t
  type client

  val name : string
  (** Short selector name ("leed", "fawn", "kvell"). *)

  val client : t -> client
  (** A new front-end endpoint with its own NIC attachment. *)

  val get : client -> string -> bytes option
  val put : client -> string -> bytes -> unit
  val del : client -> string -> unit

  val total_objects : t -> int
  (** Live objects summed over every store (R replicas count R times). *)

  val counters : t -> counters
  (** The counters this system has, cumulative since creation; callers
      take deltas with {!diff}. *)

  val watts : t -> util:float -> float
  (** Modeled wall power of the whole cluster at average device
      utilisation [util] ∈ [0,1]. Polling stacks (LEED's SmartNICs,
      KVell's Xeons) burn near-max regardless of [util]; interrupt-driven
      platforms (FAWN's Pis) scale between idle and active power. Callers
      derive [util] from observed [blockdev.busy_s] deltas — see
      {!measure}. *)
end

(** {1 Packed instances}

    A backend instance with its implementation module, usable without
    knowing which system it is. *)

type t = Pack : (module S with type t = 'a and type client = 'c) * 'a -> t
type client = Client : (module S with type t = 'a and type client = 'c) * 'c -> client

val pack : (module S with type t = 'a and type client = 'c) -> 'a -> t

val name : t -> string
val client : t -> client
val total_objects : t -> int
val counters : t -> counters
val watts : t -> util:float -> float

val get : client -> string -> bytes option
val put : client -> string -> bytes -> unit
val del : client -> string -> unit

val execute : client -> Leed_workload.Workload.op -> unit
(** [op] through the client's {!get} and {!put}
    ({!Leed_workload.Workload.apply}). *)

val measure :
  label:string -> t -> (unit -> Leed_workload.Workload.Driver.result) -> metrics
(** [measure ~label b run] snapshots the backend's counters around [run]
    (a workload-driver invocation) and combines the driver's result with
    the counter deltas and the backend's modeled power into one
    {!metrics} record. Power is evaluated at the device utilisation
    actually observed during the window (the [blockdev.busy_s] delta,
    mean fully-busy device-seconds, over the duration), so
    fault-degraded devices — which stay busy longer per command — raise the reported watts on power-proportional platforms
    instead of being invisible to a config-time constant. *)
