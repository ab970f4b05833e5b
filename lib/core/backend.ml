(* The backend-generic KV service boundary: one module type every
   comparable system implements (LEED, FAWN, KVell), an existential
   packing so harness code can hold "some backend", and the unified
   metrics record the experiments report. *)

type value = Count of int | Sum of float | Gauge of int
type counters = (string * value) list

let count c name =
  match List.assoc_opt name c with
  | Some (Count n | Gauge n) -> n
  | None -> 0
  | Some (Sum _) -> invalid_arg ("Backend.count: " ^ name ^ " is a sum")

let sum c name =
  match List.assoc_opt name c with
  | Some (Sum f) -> f
  | None -> 0.
  | Some (Count _ | Gauge _) -> invalid_arg ("Backend.sum: " ^ name ^ " is a count")

let diff ~after ~before =
  List.map
    (fun (name, v) ->
      match (v, List.assoc_opt name before) with
      | Count a, Some (Count b) -> (name, Count (a - b))
      | Sum a, Some (Sum b) -> (name, Sum (a -. b))
      | _ -> (name, v))
    after

let nvme_accesses c = count c "blockdev.reads" + count c "blockdev.writes"
let sheds c = count c "client.sheds" + count c "engine.sheds"

let device_counters devices =
  let module B = Leed_blockdev.Blockdev in
  let total f = List.fold_left (fun acc d -> acc + f (B.stats d)) 0 devices in
  let busy = List.fold_left (fun acc d -> acc +. B.busy_seconds d) 0. devices in
  let ndevs = List.length devices in
  [
    ("blockdev.reads", Count (total (fun s -> s.B.n_reads)));
    ("blockdev.writes", Count (total (fun s -> s.B.n_writes)));
    ("blockdev.busy_s", Sum (if ndevs > 0 then busy /. float_of_int ndevs else 0.));
  ]

type metrics = {
  label : string;
  ops : int;
  duration : float;
  throughput : float;
  latency : Leed_stats.Histogram.t;
  avg_lat : float;
  p99 : float;
  p999 : float;
  counters : counters;
  watts : float;
  queries_per_joule : float;
}

module type S = sig
  type t
  type client

  val name : string
  val client : t -> client
  val get : client -> string -> bytes option
  val put : client -> string -> bytes -> unit
  val del : client -> string -> unit
  val total_objects : t -> int
  val counters : t -> counters
  val watts : t -> util:float -> float
end

type t = Pack : (module S with type t = 'a and type client = 'c) * 'a -> t
type client = Client : (module S with type t = 'a and type client = 'c) * 'c -> client

let pack m inst = Pack (m, inst)

let name (Pack ((module M), _)) = M.name
let client (Pack ((module M), b)) = Client ((module M), M.client b)
let total_objects (Pack ((module M), b)) = M.total_objects b
let counters (Pack ((module M), b)) = M.counters b
let watts (Pack ((module M), b)) ~util = M.watts b ~util

let get (Client ((module M), c)) key = M.get c key
let put (Client ((module M), c)) key value = M.put c key value
let del (Client ((module M), c)) key = M.del c key
let execute (Client ((module M), c)) op =
  Leed_workload.Workload.apply ~get:(M.get c) ~put:(M.put c) op

let measure ~label b run =
  let module D = Leed_workload.Workload.Driver in
  let before = counters b in
  let r = run () in
  let delta = diff ~after:(counters b) ~before in
  (* Energy from *observed* device activity over the window, not
     config-time constants: a fault-degraded SSD burns its longer service
     times here, where a static model would never notice. *)
  let util =
    if r.D.duration > 0. then Float.min 1.0 (sum delta "blockdev.busy_s" /. r.D.duration)
    else 0.
  in
  let w = watts b ~util in
  {
    label;
    ops = r.D.ops;
    duration = r.D.duration;
    throughput = r.D.throughput;
    latency = r.D.latency;
    avg_lat = Leed_stats.Histogram.mean r.D.latency;
    p99 = Leed_stats.Histogram.percentile r.D.latency 0.99;
    p999 = Leed_stats.Histogram.percentile r.D.latency 0.999;
    counters = delta;
    watts = w;
    queries_per_joule = (if w > 0. then r.D.throughput /. w else 0.);
  }
