(* bench/profile: one end-to-end profile of the LEED stack, split by layer.

   A trial builds a cluster, preloads it and warms it up (the set-up),
   then drives one measured window of simulated load through the backend
   boundary: every [Backend.get] and [Backend.put] is timed in virtual
   time, per op type, and every layer is read from outside, as counter
   deltas over the window taken through the modules' public accessors.
   Wall times are scaled to a reference host's speed by {!Calib} slices
   run around the set-up and through the window. The traced mode repeats
   the same workload and seed under [Trace.start] and aggregates the
   spans the layers already emit.

     profile.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                 [--sched heap|calendar|wheel] [--trace-out FILE]
     profile.exe smoke BENCHMARK.json

   [--trace 0] runs [--seconds] worth of trials, each with its own seed,
   and prints the end-to-end metrics; [--trace 1] runs one untraced and
   one traced trial of the seed and prints the per-layer metrics. Output:
   a run header ('#' lines), one [name value unit] line per metric, and a
   JSON summary as the last line. The exit code is 1 on a wrong answer: a
   GET payload whose tag is not an issued version of the key, a miss on a
   preloaded key, an open-loop generator that fell behind, or a traced
   trial whose simulated numbers differ from the untraced one. The smoke
   mode also requires two runs of one seed to repeat exactly. README.md
   has the metric table and the reason for each workload. *)

open Leed_sim
open Leed_core
open Leed_workload
module Driver = Workload.Driver
module Trace = Leed_trace.Trace
module Netsim = Leed_netsim.Netsim
module Blockdev = Leed_blockdev.Blockdev
module Summary = Leed_stats.Summary
module Exp_common = Leed_experiments.Exp_common
module Schedule = Leed_fault.Fault.Schedule
module Injector = Leed_fault.Fault.Injector

let wall = Unix.gettimeofday
let default_seed = 42

(* An op slower than this misses the latency SLO. *)
let slo = 1e-3

(* ------------------------------------------------------------------ *)
(* Workloads *)

type load = Closed of int  (** workers *) | Open of float  (** arrivals per second *)

type workload = {
  name : string;
  cluster : unit -> Cluster.t;
  mix : Workload.mix;
  nkeys : int;
  object_size : int;
  load : load;
  warmup : float;  (** simulated seconds, part of the set-up *)
  window : float;  (** simulated seconds measured *)
  crowd : bool;  (** half the picks go to 16 keys from 30% to 80% of the window *)
  faults : bool;  (** arm {!fault_schedule} at the start of the window *)
  trial_s : float;  (** wall seconds of one trial on the reference machine *)
}

let mib n = n * 1024 * 1024

(* bench cache's sizing: at ~1 M GETs/s over 4000 keys, 256 hash groups
   see ~40 GETs per 10 ms classifier window, so warm at 2x and hot at 6x
   the average select the upper tail, and 4 x 256 slots hold the keys
   behind the warm quantile. *)
let hot_cache =
  Netcache.enabled
    {
      Netcache.default_config with
      Netcache.instances = 4;
      capacity = 256;
      groups = 256;
      window = 0.01;
      warm_up = 80;
      warm_down = 40;
      hot_up = 240;
      hot_down = 120;
    }

(* The chaos harness's sizing (4 JBOFs, 192 MiB drives) under ABD. *)
let abd_cluster () =
  Cluster.create
    ~config:
      {
        Cluster.default_config with
        Cluster.nnodes = 4;
        proto = Replication.Abd;
        platform = Exp_common.leed_platform ~ssd_capacity:(mib 192) ();
        engine_config =
          Exp_common.engine_config ~store_cfg:(Exp_common.store_config ~nsegments:2048 ()) ();
      }
    ()

(* The chaos generator's seed-42 schedule squeezed into 4 s (an SSD
   brown-out, 2% link loss, two short crash-restarts and a 0.3 s
   partition), then one crash at 3.3 s that outlasts the failure detector
   (3 missed 0.2 s heartbeats): the node is expelled, the chains are
   repaired, and after its log replay it rejoins through COPY before the
   6 s window ends. The generator's own downtimes stay below the
   detector, so nothing else is ever expelled. Stretched over 6 s its
   partition lasts 0.455 s, and whether that expels the isolated node
   depends on where the heartbeats fall; the 0.3 s one never does. The
   schedule is part of the workload, so it does not change with the load
   seed. *)
let fault_schedule ~scale =
  Schedule.make
    (Schedule.random ~seed:42 ~nnodes:4 ~duration:(4.0 *. scale) ()
    @ [ { Schedule.at = 3.3 *. scale; fault = Schedule.Crash_restart { node = 2; downtime = 1.0 } } ])

let workloads =
  [
    {
      name = "ycsb-b";
      cluster = (fun () -> Exp_common.make_leed_cluster ());
      mix = Workload.ycsb_b ();
      nkeys = 4_000;
      object_size = 1024;
      load = Closed 128;
      warmup = 0.01;
      window = 0.1;
      crowd = false;
      faults = false;
      trial_s = 6.5;
    };
    {
      name = "ycsb-a";
      (* 72 MiB drives keep compaction running through the window. At 64
         MiB and below the logs fill faster than compaction frees them and
         throughput depends on whether a write stall lands in the window
         (48 MiB: 150-330 k ops/s across seeds); at 96 MiB compaction never
         runs. *)
      cluster =
        (fun () ->
          Exp_common.make_leed_cluster
            ~platform:(Exp_common.leed_platform ~ssd_capacity:(mib 72) ())
            ());
      mix = Workload.uniform_mix ~read:0.5;
      nkeys = 20_000;
      object_size = 1024;
      load = Closed 128;
      warmup = 0.01;
      window = 0.1;
      crowd = false;
      faults = false;
      trial_s = 10.0;
    };
    {
      name = "hotspot-open";
      cluster = (fun () -> Exp_common.make_leed_cluster ~cache:hot_cache ());
      mix = Workload.read_write ~read:0.95 ~theta:Workload.default_theta;
      nkeys = 4_000;
      object_size = 1024;
      load = Open 1.0e6;
      (* Two classifier windows, so the hot set is cached before measuring. *)
      warmup = 0.02;
      window = 0.1;
      crowd = true;
      faults = false;
      trial_s = 6.5;
    };
    {
      name = "faults-abd";
      cluster = abd_cluster;
      mix = Workload.uniform_mix ~read:0.5;
      nkeys = 192;
      object_size = 256;
      load = Closed 4;
      (* Warm client latency histograms (adaptive timeouts, hedging)
         before the faults start. *)
      warmup = 0.2;
      window = 6.0;
      crowd = false;
      faults = true;
      trial_s = 9.0;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Per-op accounting *)

(* Exact latency samples: percentiles are order statistics, not histogram
   bucket edges, so they move with every change of timing. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* Nearest rank; 0 with no samples. *)
  let percentile t q =
    if t.n = 0 then 0.
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      s.(max 0 (min (t.n - 1) (int_of_float (ceil (q *. float_of_int t.n)) - 1)))
    end
end

(* Availability is counted in slots of this length: a slot is available
   when some op completed successfully in it. *)
let slot = 1e-3

(* What one phase (warm-up or window) observed at the client boundary. An
   op belongs to the phase current when it was issued. *)
type phase = {
  mutable attempted : int;
  mutable gets : int;
  mutable puts : int;
  mutable ok : int;
  mutable failed : int;
  mutable met_slo : int;
  get_lat : Samples.t;
  put_lat : Samples.t;
  start : float;
  served : (int, unit) Hashtbl.t;  (** {!slot}s since [start] with a success *)
}

let new_phase () =
  {
    attempted = 0;
    gets = 0;
    puts = 0;
    ok = 0;
    failed = 0;
    met_slo = 0;
    get_lat = Samples.create ();
    put_lat = Samples.create ();
    start = Sim.now ();
    served = Hashtbl.create 128;
  }

(* The tag [Workload.value_for] writes at the head of a payload:
   "v<id>:<version>;". *)
let parse_tag v =
  let n = min (Bytes.length v) 48 in
  let rec digits i acc =
    if i < n && Bytes.get v i >= '0' && Bytes.get v i <= '9' then
      digits (i + 1) ((acc * 10) + Char.code (Bytes.get v i) - Char.code '0')
    else (acc, i)
  in
  if n = 0 || Bytes.get v 0 <> 'v' then None
  else
    let id, i = digits 1 0 in
    if i = 1 || i >= n || Bytes.get v i <> ':' then None
    else
      let version, j = digits (i + 1) 0 in
      if j = i + 1 || j >= n || Bytes.get v j <> ';' then None else Some (id, version)

(* The [execute] closure handed to the drivers: round-robins ops over the
   front-end clients, times each in virtual time, checks every GET
   payload, and counts [Client.Unavailable] as a failed op. *)
let timed_execute ~gen ~phase ~error clients =
  Driver.round_robin
    (fun c op ->
      let p = !phase in
      p.attempted <- p.attempted + 1;
      let t0 = Sim.now () in
      let completed samples =
        let now = Sim.now () in
        let lat = now -. t0 in
        Samples.add samples lat;
        p.ok <- p.ok + 1;
        if lat <= slo then p.met_slo <- p.met_slo + 1;
        Hashtbl.replace p.served (int_of_float ((now -. p.start) /. slot)) ()
      in
      match op with
      | Workload.Read key -> (
          p.gets <- p.gets + 1;
          match Backend.get c key with
          | None -> error (Printf.sprintf "GET %s: miss on a preloaded key" key)
          | Some v ->
              let id = Workload.id_of_key key in
              (match parse_tag v with
              | Some (i, version) when i = id && version <= Workload.current_version gen id -> ()
              | _ -> error (Printf.sprintf "GET %s: payload is not an issued version of the key" key));
              completed p.get_lat
          | exception Client.Unavailable _ -> p.failed <- p.failed + 1)
      | Workload.Update (key, v) -> (
          p.puts <- p.puts + 1;
          match Backend.put c key v with
          | () -> completed p.put_lat
          | exception Client.Unavailable _ -> p.failed <- p.failed + 1)
      | Workload.Insert _ | Workload.Read_modify_write _ ->
          invalid_arg "profile: the workloads issue only reads and updates")
    clients

(* ------------------------------------------------------------------ *)
(* Layer counters, read from outside *)

(* Cumulative counters of every layer, by name. Node objects survive
   crashes and expulsion ([Cluster.nodes] keeps them), and devices are
   not rebooted on restart, so every entry only grows. *)
let snapshot cluster =
  let f = float_of_int in
  let nodes = Cluster.nodes cluster in
  let sum xs g = List.fold_left (fun a x -> a +. g x) 0. xs in
  let over arr g = Array.fold_left (fun a x -> a +. g x) 0. arr in
  let clients g = sum (Cluster.clients cluster) g in
  let node g = sum nodes (fun n -> f (g (Node.stats n))) in
  let ssds g = sum nodes (fun n -> over (Engine.ssds (Node.engine n)) (fun s -> f (g (Engine.ssd_stats s)))) in
  let stores g = sum nodes (fun n -> over (Engine.partitions (Node.engine n)) (fun p -> g (Engine.store p))) in
  let devs g = sum nodes (fun n -> over (Engine.devices (Node.engine n)) g) in
  let dev g = devs (fun d -> f (g (Blockdev.stats d))) in
  let net g = sum nodes (fun n -> f (g (Netsim.stats (Netsim.Rpc.endpoint (Node.rpc n))))) in
  let op kind g = stores (fun s -> g (Store.stats s kind)) in
  let cache g = match Cluster.cache cluster with Some c -> f (g (Netcache.stats c)) | None -> 0. in
  let control = Control.stats (Cluster.control cluster) in
  [
    ("events", f (Sim.events_dispatched ()));
    ("processes", f (Sim.processes_spawned ()));
    ("minor_words", Gc.minor_words ());
    ("major_gcs", f (Gc.quick_stat ()).Gc.major_collections);
    ("throttled_s", clients Client.throttled_time);
    ("retries", clients (fun c -> f (Client.retries c)));
    ("backoff_s", clients Client.backoff_time);
    ("hedges", clients (fun c -> f (Client.hedges c)));
    ("quorum_rounds", clients (fun c -> f (Client.quorum_rounds c)));
    ("writebacks", clients (fun c -> f (Client.writebacks c)));
    ("msgs", net (fun s -> s.Netsim.msgs_in + s.Netsim.msgs_out));
    ("bytes", net (fun s -> s.Netsim.bytes_in + s.Netsim.bytes_out));
    ("dropped", f (Netsim.fabric_stats (Cluster.fabric cluster)).Netsim.dropped);
    ("cache_hits", cache (fun s -> s.Netcache.hits));
    ("cache_invalidations", cache (fun s -> s.Netcache.invalidations));
    ("cache_evictions", cache (fun s -> s.Netcache.evictions));
    ("write_applies", node (fun s -> s.Node.n_write_applies));
    ("shipped_reads", node (fun s -> s.Node.n_shipped_reads));
    ("served_reads", node (fun s -> s.Node.n_served_reads));
    ("node_nacks", node (fun s -> s.Node.n_nacks));
    ("executed", ssds (fun s -> s.Engine.executed));
    ("deferred", ssds (fun s -> s.Engine.deferred));
    ("swapped_out", ssds (fun s -> s.Engine.swapped_out));
    ("denied", ssds (fun s -> s.Engine.denied));
    ("shed", ssds (fun s -> s.Engine.shed));
    ("store_gets", op Store.Get (fun s -> f s.Store.count));
    ("store_get_nvme", op Store.Get (fun s -> f s.Store.nvme_accesses));
    ("store_puts", op Store.Put (fun s -> f s.Store.count));
    ("store_put_nvme", op Store.Put (fun s -> f s.Store.nvme_accesses));
    ( "store_cpu_s",
      stores (fun s ->
          List.fold_left
            (fun a k -> a +. Summary.sum (Store.stats s k).Store.cpu_time)
            0. [ Store.Get; Store.Put; Store.Del ]) );
    ("compactions", stores (fun s -> f (Store.counters s).Store.compaction_runs));
    ("dev_reads", dev (fun s -> s.Blockdev.n_reads));
    ("dev_writes", dev (fun s -> s.Blockdev.n_writes));
    ("dev_bytes_written", dev (fun s -> s.Blockdev.bytes_written));
    ("dev_busy_s", devs Blockdev.busy_seconds);
    ("failures_handled", f control.Control.n_failures_handled);
    ("joins", f control.Control.n_joins);
  ]

let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer metrics from the window's counter deltas [d]. *)
let layer_metrics ~d ~(p : phase) ~duration ~ndevs ~object_size =
  let ops = float_of_int p.attempted and f = float_of_int in
  let per_op x = ratio (d x) ops and per_kop x = 1e3 *. ratio (d x) ops in
  [
    ("sim.events_per_op", per_op "events");
    ("sim.minor_words_per_op", per_op "minor_words");
    ("sim.processes_per_op", per_op "processes");
    ("sim.max_pending", f (Sim.max_pending_events ()));
    ("sim.major_gcs_per_kop", per_kop "major_gcs");
    ("client.throttled_us_per_op", 1e6 *. per_op "throttled_s");
    ("client.retries_per_kop", per_kop "retries");
    ("client.backoff_us_per_op", 1e6 *. per_op "backoff_s");
    ("client.hedges_per_kop", per_kop "hedges");
    ("client.quorum_rounds_per_op", per_op "quorum_rounds");
    ("client.writebacks_per_kop", per_kop "writebacks");
    ("netsim.msgs_per_op", per_op "msgs");
    ("netsim.bytes_per_op", per_op "bytes");
    ("netsim.dropped_per_kop", per_kop "dropped");
    ("netcache.hit_rate", ratio (d "cache_hits") (f p.gets));
    ("netcache.hits_per_kop", per_kop "cache_hits");
    ("netcache.invalidations_per_kop", per_kop "cache_invalidations");
    ("netcache.evictions_per_kop", per_kop "cache_evictions");
    ("node.write_applies_per_put", ratio (d "write_applies") (f p.puts));
    ("node.shipped_read_frac", ratio (d "shipped_reads") (d "served_reads"));
    ("node.nacks_per_kop", per_kop "node_nacks");
    ("engine.deferred_frac", ratio (d "deferred") (d "executed"));
    ("engine.swapped_frac", ratio (d "swapped_out") (d "store_puts"));
    ("engine.denied_per_kop", per_kop "denied");
    ("engine.shed_per_kop", per_kop "shed");
    ("store.nvme_per_get", ratio (d "store_get_nvme") (d "store_gets"));
    ("store.nvme_per_put", ratio (d "store_put_nvme") (d "store_puts"));
    ("store.compactions_per_kop", per_kop "compactions");
    ("store.cpu_us_per_op", 1e6 *. per_op "store_cpu_s");
    ("blockdev.reads_per_op", per_op "dev_reads");
    ("blockdev.writes_per_op", per_op "dev_writes");
    ("blockdev.util", ratio (d "dev_busy_s") (duration *. f ndevs));
    ("blockdev.write_amp", ratio (d "dev_bytes_written") (f (p.ok - p.get_lat.Samples.n) *. f object_size));
    ("control.failures_handled", d "failures_handled");
    ("control.joins", d "joins");
  ]

(* ------------------------------------------------------------------ *)
(* Trials *)

type trial = {
  seed : int;
  sim : (string * float) list;  (** simulated end-to-end metrics *)
  layers : (string * float) list;  (** per-layer counter metrics *)
  events : int;  (** events dispatched in the window *)
  minor_words : float;  (** words allocated in the window *)
  attempted : int;
  completed : int;
  failed : int;
  errors : string list;  (** wrong answers, oldest first *)
  setup_s : float;  (** wall: cluster build + preload + warm-up *)
  window_s : float;  (** wall: the measured window *)
  ref_setup_s : float;  (** [setup_s] on the reference host ({!Calib.scale}) *)
  ref_window_s : float;  (** [window_s] on the reference host *)
  t0 : float;  (** virtual start and end of the window *)
  t1 : float;
}

(* Straggler allowance after an open-loop window; ops issued in the window
   and finishing in it still count. *)
let drain = 0.01

let calib = Calib.create ()

(* Calibration slices: [bracket] before and after the set-up, and
   [spread] at even steps of virtual time through the window, each count
   shrunk with [scale] (about 6 ms a slice). *)
let bracket = 8
let spread = 64

let run_trial ?sched ~scale ~seed w =
  let slices n = max 2 (int_of_float (Float.round (float_of_int n *. scale))) in
  Sim.run ?sched (fun () ->
      let setup_mark = Calib.mark calib in
      Calib.run calib (slices bracket);
      let w0 = wall () in
      let cluster = w.cluster () in
      let setup = Exp_common.setup_of_cluster ~nclients:4 cluster in
      (* [scale] < 1 shrinks the keyspace with the windows, so that the
         smoke test's preloads stay short too. *)
      let nkeys = max 16 (int_of_float (float_of_int w.nkeys *. scale)) in
      Exp_common.preload setup ~nkeys ~value_size:(w.object_size - Workload.key_size);
      let warmup = w.warmup *. scale and window = w.window *. scale in
      let flash_crowd =
        if w.crowd then
          Some
            {
              Workload.fc_start = Sim.now () +. warmup +. (0.3 *. window);
              fc_duration = 0.5 *. window;
              fc_frac = 0.5;
              fc_keys = 16;
            }
        else None
      in
      let gen =
        Workload.generator ~object_size:w.object_size ?flash_crowd w.mix ~nkeys
          (Rng.create seed)
      in
      let errors = ref [] in
      let error msg = errors := msg :: !errors in
      let phase = ref (new_phase ()) in
      let execute = timed_execute ~gen ~phase ~error setup.Exp_common.clients in
      let drive ~drain duration =
        match w.load with
        | Closed workers -> Driver.closed_loop ~clients:workers ~duration ~gen ~execute ()
        | Open rate -> Driver.open_loop ~drain ~rate ~duration ~gen ~execute ()
      in
      ignore (drive ~drain:0. warmup);
      let setup_s = wall () -. w0 in
      Calib.run calib (slices bracket);
      let ref_setup_s = Calib.scale calib setup_mark setup_s in
      if w.faults then
        ignore
          (Injector.arm ~rng:(Rng.create (seed lxor 0x5eed)) cluster (fault_schedule ~scale));
      phase := new_phase ();
      let before = snapshot cluster in
      let window_mark = Calib.mark calib in
      let t0 = Sim.now () and w1 = wall () in
      (* The slices run from timer callbacks, which touch no simulated
         state: every other event keeps its order. *)
      let n = slices spread in
      let step = window /. float_of_int n in
      let rec tick i () =
        Calib.slice calib;
        if i + 1 < n then Sim.after step (tick (i + 1))
      in
      Sim.after (step /. 2.) (tick 0);
      let r = drive ~drain window in
      let window_s = wall () -. w1 -. Calib.since calib window_mark in
      let ref_window_s = Calib.scale calib window_mark window_s in
      let after = snapshot cluster in
      let ndevs =
        List.fold_left
          (fun a n -> a + Array.length (Engine.devices (Node.engine n)))
          0 (Cluster.nodes cluster)
      in
      let p = !phase in
      let d name = List.assoc name after -. List.assoc name before in
      (* In virtual time the open-loop generator is never late: its loop
         only sleeps between arrivals. Check that it kept its rate. *)
      (match w.load with
      | Open rate ->
          let expect = rate *. window in
          if Float.abs (float_of_int p.attempted -. expect) > 6. *. sqrt expect then
            error (Printf.sprintf "open loop issued %d ops, expected about %.0f" p.attempted expect)
      | Closed _ -> ());
      let duration = r.Driver.duration in
      let slots = int_of_float (Float.ceil (duration /. slot)) in
      let available = Hashtbl.fold (fun i () n -> if i < slots then n + 1 else n) p.served 0 in
      let sim =
        [
          ("throughput_ops_s", float_of_int p.ok /. duration);
          ("get_p50_us", 1e6 *. Samples.percentile p.get_lat 0.5);
          ("get_p99_us", 1e6 *. Samples.percentile p.get_lat 0.99);
          ("put_p50_us", 1e6 *. Samples.percentile p.put_lat 0.5);
          ("put_p99_us", 1e6 *. Samples.percentile p.put_lat 0.99);
          ("slo_met_frac", ratio (float_of_int p.met_slo) (float_of_int p.attempted));
          ("ok_frac", ratio (float_of_int p.ok) (float_of_int p.attempted));
          ("avail_frac", float_of_int available /. float_of_int slots);
        ]
      in
      {
        seed;
        sim;
        layers = layer_metrics ~d ~p ~duration ~ndevs ~object_size:w.object_size;
        events = int_of_float (d "events");
        minor_words = d "minor_words";
        attempted = p.attempted;
        completed = p.ok;
        failed = p.failed;
        errors = List.rev !errors;
        setup_s;
        window_s;
        ref_setup_s;
        ref_window_s;
        t0;
        t1 = t0 +. duration;
      })

(* The traced-run metrics: spans the layers emit, aggregated in memory
   over the window (by start time). Async pairs are matched by id. *)
let trace_metrics (t : trial) =
  let lo = Sim.to_us t.t0 and hi = Sim.to_us t.t1 in
  let flight = Summary.create () and node_get = Summary.create () in
  let node_write = Summary.create () and cmd = Summary.create () in
  let exec = Summary.create () and service = Summary.create () in
  let copy = Summary.create () in
  let opened = Hashtbl.create 4096 in
  let in_window = ref 0 in
  let starts_with p s = String.starts_with ~prefix:p s in
  List.iter
    (fun (e : Trace.event) ->
      if e.ts >= lo && e.ts < hi then incr in_window;
      match (e.ph, e.cat) with
      | 'b', ("net" | "engine") -> if e.ts >= lo && e.ts < hi then Hashtbl.replace opened e.id e.ts
      | 'e', ("net" | "engine") -> (
          match Hashtbl.find_opt opened e.id with
          | None -> ()
          | Some ts ->
              Hashtbl.remove opened e.id;
              if e.cat = "engine" then Summary.add cmd (e.ts -. ts)
              else if not (List.mem ("dropped", Trace.Bool true) e.args) then
                Summary.add flight (e.ts -. ts))
      | 'X', _ when e.ts >= lo && e.ts < hi -> (
          match (e.cat, e.name) with
          | "node", ("get" | "tag_read") -> Summary.add node_get e.dur
          | "node", ("write" | "tag_write") -> Summary.add node_write e.dur
          | "engine", name when starts_with "exec." name -> Summary.add exec e.dur
          | "dev", _ -> Summary.add service e.dur
          | "control", "copy.arc" -> Summary.add copy e.dur
          | _ -> ())
      | _ -> ())
    (Trace.events ());
  let mean s = if Summary.count s = 0 then 0. else Summary.mean s in
  [
    ("netsim.flight_us", mean flight);
    ("node.get_us", mean node_get);
    ("node.write_us", mean node_write);
    ("engine.token_wait_us", Float.max 0. (mean cmd -. mean exec));
    ("engine.exec_us", mean exec);
    ("blockdev.service_us", mean service);
    ("control.copy_ms", Summary.sum copy /. 1e3);
    ("trace.events_per_op", ratio (float_of_int !in_window) (float_of_int t.attempted));
  ]

let traced_trial ?sched ?trace_out ~scale ~seed w =
  Trace.start ();
  let t = run_trial ?sched ~scale ~seed w in
  Trace.stop ();
  Option.iter Trace.write_file trace_out;
  (t, trace_metrics t)

(* ------------------------------------------------------------------ *)
(* Metrics and output *)

let e2e_units =
  [
    ("throughput_ops_s", "ops/s");
    ("get_p50_us", "us");
    ("get_p99_us", "us");
    ("put_p50_us", "us");
    ("put_p99_us", "us");
    ("slo_met_frac", "fraction");
    ("ok_frac", "fraction");
    ("avail_frac", "fraction");
    ("ref_wall_us_per_op", "us");
    ("setup_s", "s");
    ("peak_heap_mb", "MiB");
  ]

let layer_units =
  [
    ("sim.events_per_op", "events/op");
    ("sim.minor_words_per_op", "words/op");
    ("sim.processes_per_op", "procs/op");
    ("sim.max_pending", "events");
    ("sim.major_gcs_per_kop", "gcs/kop");
    ("client.throttled_us_per_op", "us/op");
    ("client.retries_per_kop", "count/kop");
    ("client.backoff_us_per_op", "us/op");
    ("client.hedges_per_kop", "count/kop");
    ("client.quorum_rounds_per_op", "rounds/op");
    ("client.writebacks_per_kop", "count/kop");
    ("netsim.msgs_per_op", "msgs/op");
    ("netsim.bytes_per_op", "bytes/op");
    ("netsim.dropped_per_kop", "count/kop");
    ("netsim.flight_us", "us");
    ("netcache.hit_rate", "fraction");
    ("netcache.hits_per_kop", "count/kop");
    ("netcache.invalidations_per_kop", "count/kop");
    ("netcache.evictions_per_kop", "count/kop");
    ("node.write_applies_per_put", "applies/put");
    ("node.shipped_read_frac", "fraction");
    ("node.get_us", "us");
    ("node.nacks_per_kop", "count/kop");
    ("node.write_us", "us");
    ("engine.deferred_frac", "fraction");
    ("engine.token_wait_us", "us");
    ("engine.swapped_frac", "fraction");
    ("engine.exec_us", "us");
    ("engine.denied_per_kop", "count/kop");
    ("engine.shed_per_kop", "count/kop");
    ("store.nvme_per_get", "accesses/get");
    ("store.nvme_per_put", "accesses/put");
    ("store.compactions_per_kop", "count/kop");
    ("store.cpu_us_per_op", "us/op");
    ("blockdev.reads_per_op", "reads/op");
    ("blockdev.util", "fraction");
    ("blockdev.service_us", "us");
    ("blockdev.writes_per_op", "writes/op");
    ("blockdev.write_amp", "bytes/byte");
    ("control.failures_handled", "count");
    ("control.joins", "count");
    ("control.copy_ms", "ms");
    ("trace.overhead_pct", "%");
    ("trace.events_per_op", "events/op");
  ]

let unit_of name = List.assoc name (e2e_units @ layer_units)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Major collections depend on the heap an earlier trial left behind;
   every other counter must repeat exactly. *)
let repeatable (t : trial) = List.remove_assoc "sim.major_gcs_per_kop" t.layers

(* Wrong answers across a set of trials of one seed: their own errors,
   plus any simulated number that did not repeat exactly. *)
let check_repeats (first : trial) (others : trial list) =
  first.errors
  @ List.concat_map
      (fun (t : trial) ->
        t.errors
        @
        if t.sim <> first.sim || repeatable t <> repeatable first then
          [ "simulated metrics differ between repeats of one seed" ]
        else if t.events <> first.events || t.minor_words <> first.minor_words then
          [ "event or allocation counts differ between repeats of one seed" ]
        else [])
      others

let check_traced (untraced : trial) (traced : trial) =
  traced.errors
  @ if traced.sim <> untraced.sim then [ "tracing moved a simulated end-to-end metric" ] else []

let per_op (t : trial) window_s = 1e6 *. window_s /. float_of_int (max 1 t.completed)

(* Medians over trials; each trial ran its own seed, so the median also
   damps seed-to-seed variation of the simulated numbers. The wall times
   are the reference host's ({!Calib}). *)
let e2e_metrics (trials : trial list) =
  let med f = median (List.map f trials) in
  List.map (fun (name, _) -> (name, med (fun (t : trial) -> List.assoc name t.sim))) (List.hd trials).sim
  @ [
      ("ref_wall_us_per_op", med (fun t -> per_op t t.ref_window_s));
      ("setup_s", med (fun t -> t.ref_setup_s));
      ( "peak_heap_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
    ]

(* The per-layer metrics, in table order, from an untraced trial and a
   traced one of the same seed. *)
let layer_output (untraced : trial) ((traced : trial), trace_metrics) =
  let all =
    untraced.layers @ trace_metrics
    @ [ ("trace.overhead_pct", 100. *. ((traced.ref_window_s /. untraced.ref_window_s) -. 1.)) ]
  in
  List.map (fun (name, _) -> (name, List.assoc name all)) layer_units

(* The commit the checkout was built from, read from .git without
   leaving the working directory; "unknown" outside a git checkout. *)
let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_name) with
      | Some sha -> sha
      | None ->
          let packed = Option.value (read ".git/packed-refs") ~default:"" in
          List.find_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ sha; r ] when r = ref_name -> Some sha
              | _ -> None)
            (String.split_on_char '\n' packed)
          |> Option.value ~default:"unknown")
  | Some sha -> sha

let sched_names = [ ("heap", Sim.Binary_heap); ("calendar", Sim.Calendar); ("wheel", Sim.Wheel) ]

let print_result ~w ~sched ~start ~(trials : trial list) ~errors metrics =
  let sched_name =
    match sched with
    | None -> "heap (Sim.run default)"
    | Some s -> fst (List.find (fun (_, k) -> k = s) sched_names)
  in
  let total f = List.fold_left (fun a t -> a + f t) 0 trials in
  let each f = String.concat " " (List.map f trials) in
  List.iter
    (fun (k, v) -> Printf.printf "# %s %s\n" k v)
    [
      ("bench", "profile");
      ("rev", git_rev ());
      ("workload", w.name);
      ("seeds", each (fun t -> string_of_int t.seed));
      ("sched", sched_name);
      ("window_s", Printf.sprintf "%g" w.window);
      ("attempted", string_of_int (total (fun t -> t.attempted)));
      ("completed", string_of_int (total (fun t -> t.completed)));
      ("events", string_of_int (total (fun t -> t.events)));
      ("wall_us_per_op", each (fun t -> Printf.sprintf "%.2f" (per_op t t.window_s)));
      ("setup_s", each (fun t -> Printf.sprintf "%.3f" t.setup_s));
      ("host_slowdown", each (fun t -> Printf.sprintf "%.3f" (t.window_s /. t.ref_window_s)));
      ("wall_s", Printf.sprintf "%.3f" (wall () -. start));
    ];
  List.iter (fun e -> Printf.printf "# error %s\n" e) errors;
  List.iter (fun (name, v) -> Printf.printf "%s %.10g %s\n" name v (unit_of name)) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (errors = []) (total (fun t -> t.attempted)) (total (fun t -> t.failed))
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v (unit_of name))
          metrics))

(* A trial's seed: the run's own for the first, derived ones after it. *)
let trial_seed seed i = if i = 0 then seed else Rng.hash2 seed i

(* [--trace 0]: [seconds] worth of trials, each with its own seed, and the
   end-to-end metrics as medians over them. The trial count comes from
   the workload's nominal trial time, not from a clock, so the simulated
   medians do not depend on how fast the machine is. [--trace 1]: one
   untraced and one traced trial of the run's seed, and the per-layer
   metrics. *)
let profile ?sched ?trace_out ~seed ~seconds ~traced w =
  let start = wall () in
  let trials, errors, metrics =
    if traced then
      let u = run_trial ?sched ~scale:1. ~seed w in
      let t = traced_trial ?sched ?trace_out ~scale:1. ~seed w in
      ([ u ], u.errors @ check_traced u (fst t), layer_output u t)
    else
      let k = max 1 (int_of_float (Float.round (seconds /. w.trial_s))) in
      let trials = List.init k (fun i -> run_trial ?sched ~scale:1. ~seed:(trial_seed seed i) w) in
      (trials, List.concat_map (fun (t : trial) -> t.errors) trials, e2e_metrics trials)
  in
  print_result ~w ~sched ~start ~trials ~errors metrics;
  if errors <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Smoke test: every workload at 1/20 of its window, checked against the
   metric list in BENCHMARK.json. *)

let smoke_scale = 0.05

let smoke spec_file =
  let module J = Trace.Json in
  let spec =
    match J.parse (In_channel.with_open_text spec_file In_channel.input_all) with
    | Ok (J.Obj fields) -> fields
    | Ok _ | Error _ -> failwith (spec_file ^ ": not a JSON object")
  in
  let entries key =
    match List.assoc_opt key spec with
    | Some (J.Arr items) ->
        List.map
          (function
            | J.Obj o -> (
                match (List.assoc_opt "name" o, List.assoc_opt "unit" o) with
                | Some (J.Str n), Some (J.Str u) -> (n, u)
                | Some (J.Str n), None -> (n, "")
                | _ -> failwith (spec_file ^ ": entry without a name"))
            | _ -> failwith (spec_file ^ ": malformed entry"))
          items
    | _ -> failwith (spec_file ^ ": missing " ^ key)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let names = List.map fst (entries "workloads") in
  if names <> List.map (fun w -> w.name) workloads then
    fail "BENCHMARK.json workloads [%s] differ from the program's" (String.concat "; " names);
  let wanted = entries "end_to_end" @ entries "per_layer" in
  List.iter
    (fun w ->
      let w0 = wall () in
      let a = run_trial ~scale:smoke_scale ~seed:default_seed w in
      let b = run_trial ~scale:smoke_scale ~seed:default_seed w in
      let traced = traced_trial ~scale:smoke_scale ~seed:default_seed w in
      List.iter (fail "%s: %s" w.name) (check_repeats a [ b ] @ check_traced a (fst traced));
      let produced = e2e_metrics [ a; b ] @ layer_output a traced in
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name produced with
          | None -> fail "%s: metric %s not produced" w.name name
          | Some v ->
              if not (Float.is_finite v) then fail "%s: %s = %g is not finite" w.name name v;
              if unit_of name <> unit then
                fail "%s: %s has unit %s, BENCHMARK.json says %s" w.name name (unit_of name) unit)
        wanted;
      Printf.printf "smoke %-12s %6d ops  %8d events  %.2f s wall\n%!" w.name a.attempted a.events
        (wall () -. w0))
    workloads;
  match List.rev !failures with
  | [] -> print_endline "smoke: ok"
  | fs ->
      List.iter prerr_endline fs;
      exit 1

(* ------------------------------------------------------------------ *)

let usage =
  "usage: profile.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
  \                   [--sched heap|calendar|wheel] [--trace-out FILE]\n\
  \       profile.exe smoke BENCHMARK.json\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let () =
  let bad msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "smoke"; spec ] -> smoke spec
  | args ->
      let rec parse opts = function
        | [] -> opts
        | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
            parse ((flag, value) :: opts) rest
        | arg :: _ -> bad ("unexpected argument " ^ arg)
      in
      let opts = parse [] args in
      List.iter
        (fun (flag, _) ->
          if not (List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace"; "--sched"; "--trace-out" ])
          then bad ("unknown option " ^ flag))
        opts;
      (* The value of [flag] through [conv]; [None] when absent. *)
      let opt flag conv =
        Option.map
          (fun v -> match conv v with Some x -> x | None -> bad ("bad value for " ^ flag))
          (List.assoc_opt flag opts)
      in
      let w =
        match opt "--workload" (fun n -> List.find_opt (fun w -> w.name = n) workloads) with
        | Some w -> w
        | None -> bad "--workload is required"
      in
      let seed = Option.value (opt "--seed" int_of_string_opt) ~default:default_seed in
      let seconds = Option.value (opt "--seconds" float_of_string_opt) ~default:20. in
      let traced =
        opt "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) = Some true
      in
      let sched = opt "--sched" (fun s -> List.assoc_opt s sched_names) in
      profile ?sched ?trace_out:(opt "--trace-out" Option.some) ~seed ~seconds ~traced w
