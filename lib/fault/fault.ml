(* Deterministic fault injection (the robustness counterpart of §3.8).

   Three layers:

   - [Schedule]: a declarative list of timed fault events — node crashes,
     crash-restarts with log-replay recovery, NIC partitions between node
     sets, per-link loss and latency jitter, SSD degradation and death.
     Schedules are data: hand-written in tests, or generated from a seed
     by [Schedule.random] under a safety envelope that keeps node-level
     faults serialized (so R >= 2 guarantees no acknowledged write ever
     loses its last replica).

   - [Injector]: arms a schedule against a running [Cluster]. Each event
     becomes a spawned process that sleeps until its time and drives the
     per-layer hooks: [Netsim.add_fault] link rules for partitions / loss
     / jitter, [Blockdev.set_service_factor] / [Blockdev.fail] for disk
     faults, [Node.crash] + [Cluster.restart_node] for the crash-restart
     path. Every stochastic choice flows from seeded [Rng] streams, so a
     schedule replays bit-identically.

   - [Chaos]: a closed-loop harness that preloads a keyspace, runs
     sequence-numbered writes and validating reads from several front-end
     clients while an injector plays a schedule, then checks end-of-run
     invariants: zero acknowledged-write loss, per-replica durability,
     every chain back at full replication, bounded unavailability. The
     report digests to a hex string, so two same-seed runs can be diffed
     for determinism. *)

open Leed_sim
open Leed_blockdev
open Leed_netsim
open Leed_platform
open Leed_core
module Rpc = Netsim.Rpc
module Driver = Leed_workload.Workload.Driver

(* ------------------------------------------------------------------ *)

module Schedule = struct
  type fault =
    | Crash of int
    | Crash_restart of { node : int; downtime : float }
    | Partition of { a : int list; b : int list; duration : float }
    | Link_loss of { node : int; prob : float; duration : float }
    | Link_jitter of { node : int; extra : float; duration : float }
    | Ssd_degrade of { node : int; ssd : int; factor : float; duration : float }
    | Ssd_fail of { node : int; ssd : int }
    | Bit_rot of { node : int; flips : int }
    | Fail_slow of { node : int; factor : float; duration : float }
        (* gray failure: the node's NIC-CPU compute path runs [factor]x
           slower (§ fail-slow), but the node stays up, answers
           heartbeats, and holds tokens — the detector-blind fault the
           hedging/escalation machinery exists for *)
    | Link_jitter_ramp of
        { node : int; peak : float; ramp : float; duration : float; inbound : bool }
        (* asymmetric creeping jitter: delay grows linearly from 0 to
           [peak] over [ramp] seconds, holds until [duration], and only
           affects one direction — inbound (toward the node) or
           outbound. Gray network degradation, as opposed to the
           symmetric step of [Link_jitter]. *)

  type event = { at : float; fault : fault }

  type t = event list

  let make events = List.stable_sort (fun a b -> compare a.at b.at) events

  let fault_to_string = function
    | Crash n -> Printf.sprintf "crash node %d" n
    | Crash_restart { node; downtime } ->
        Printf.sprintf "crash-restart node %d (down %.3fs)" node downtime
    | Partition { a; b; duration } ->
        Printf.sprintf "partition [%s] | [%s] for %.3fs"
          (String.concat ";" (List.map string_of_int a))
          (String.concat ";" (List.map string_of_int b))
          duration
    | Link_loss { node; prob; duration } ->
        Printf.sprintf "link-loss node %d p=%.2f for %.3fs" node prob duration
    | Link_jitter { node; extra; duration } ->
        Printf.sprintf "link-jitter node %d +%.0fus for %.3fs" node (Sim.to_us extra) duration
    | Ssd_degrade { node; ssd; factor; duration } ->
        Printf.sprintf "ssd-degrade node %d ssd %d x%.1f for %.3fs" node ssd factor duration
    | Ssd_fail { node; ssd } -> Printf.sprintf "ssd-fail node %d ssd %d" node ssd
    | Bit_rot { node; flips } -> Printf.sprintf "bit-rot node %d (%d bit flips)" node flips
    | Fail_slow { node; factor; duration } ->
        Printf.sprintf "fail-slow node %d x%.1f for %.3fs" node factor duration
    | Link_jitter_ramp { node; peak; ramp; duration; inbound } ->
        Printf.sprintf "link-jitter-ramp node %d %s peak +%.0fus over %.3fs for %.3fs" node
          (if inbound then "inbound" else "outbound")
          (Sim.to_us peak) ramp duration

  let to_string t =
    String.concat "\n"
      (List.map (fun { at; fault } -> Printf.sprintf "  t=%7.3fs  %s" at (fault_to_string fault)) t)

  (* --- wire format: one event per line, floats as %h (lossless) --- *)

  let fault_to_wire = function
    | Crash n -> Printf.sprintf "crash %d" n
    | Crash_restart { node; downtime } -> Printf.sprintf "crash-restart %d %h" node downtime
    | Partition { a; b; duration } ->
        Printf.sprintf "partition %s %s %h"
          (String.concat "," (List.map string_of_int a))
          (String.concat "," (List.map string_of_int b))
          duration
    | Link_loss { node; prob; duration } ->
        Printf.sprintf "link-loss %d %h %h" node prob duration
    | Link_jitter { node; extra; duration } ->
        Printf.sprintf "link-jitter %d %h %h" node extra duration
    | Ssd_degrade { node; ssd; factor; duration } ->
        Printf.sprintf "ssd-degrade %d %d %h %h" node ssd factor duration
    | Ssd_fail { node; ssd } -> Printf.sprintf "ssd-fail %d %d" node ssd
    | Bit_rot { node; flips } -> Printf.sprintf "bit-rot %d %d" node flips
    | Fail_slow { node; factor; duration } ->
        Printf.sprintf "fail-slow %d %h %h" node factor duration
    | Link_jitter_ramp { node; peak; ramp; duration; inbound } ->
        Printf.sprintf "link-jitter-ramp %d %h %h %h %b" node peak ramp duration inbound

  let to_wire t =
    String.concat "\n"
      (List.map (fun { at; fault } -> Printf.sprintf "%h %s" at (fault_to_wire fault)) t)

  let of_wire s =
    let bad line = invalid_arg ("Schedule.of_wire: malformed event: " ^ line) in
    let ids = function
      | "" -> []
      | s -> List.map int_of_string (String.split_on_char ',' s)
    in
    let parse_exn line =
      match String.split_on_char ' ' (String.trim line) with
      | at :: rest ->
          let at = float_of_string at in
          let fault =
            match rest with
            | [ "crash"; n ] -> Crash (int_of_string n)
            | [ "crash-restart"; n; d ] ->
                Crash_restart { node = int_of_string n; downtime = float_of_string d }
            | [ "partition"; a; b; d ] ->
                Partition { a = ids a; b = ids b; duration = float_of_string d }
            | [ "link-loss"; n; p; d ] ->
                Link_loss
                  { node = int_of_string n; prob = float_of_string p; duration = float_of_string d }
            | [ "link-jitter"; n; e; d ] ->
                Link_jitter
                  { node = int_of_string n; extra = float_of_string e; duration = float_of_string d }
            | [ "ssd-degrade"; n; s; f; d ] ->
                Ssd_degrade
                  {
                    node = int_of_string n;
                    ssd = int_of_string s;
                    factor = float_of_string f;
                    duration = float_of_string d;
                  }
            | [ "ssd-fail"; n; s ] -> Ssd_fail { node = int_of_string n; ssd = int_of_string s }
            | [ "bit-rot"; n; f ] -> Bit_rot { node = int_of_string n; flips = int_of_string f }
            | [ "fail-slow"; n; f; d ] ->
                Fail_slow
                  {
                    node = int_of_string n;
                    factor = float_of_string f;
                    duration = float_of_string d;
                  }
            | [ "link-jitter-ramp"; n; p; r; d; i ] ->
                Link_jitter_ramp
                  {
                    node = int_of_string n;
                    peak = float_of_string p;
                    ramp = float_of_string r;
                    duration = float_of_string d;
                    inbound = bool_of_string i;
                  }
            | _ -> bad line
          in
          { at; fault }
      | [] -> bad line
    in
    (* int/float/bool_of_string raise Failure; turn any of them into the
       documented Invalid_argument. *)
    let parse line = try parse_exn line with Failure _ -> bad line in
    make
      (List.filter_map
         (fun line -> if String.trim line = "" then None else Some (parse line))
         (String.split_on_char '\n' s))

  (* Seeded random schedule under the safety envelope: node-level faults
     (crash-restarts, the partition) occupy disjoint time slots, each
     sized so detection, repair, and rejoin complete before the next
     strikes — one node-level fault in flight at a time is what keeps
     R >= 2 sufficient for zero acknowledged-write loss. Link loss and
     SSD degradation are not failures (they only slow or retry traffic),
     so they may overlap anything. *)
  let random ?(bit_rot = false) ?(fail_slow = false) ~seed ~nnodes ~duration () =
    if nnodes < 2 then invalid_arg "Schedule.random: need at least 2 nodes";
    if duration <= 0. then invalid_arg "Schedule.random: duration must be positive";
    let rng = Rng.create seed in
    let t0 = 0.15 *. duration and t1 = 0.8 *. duration in
    let n_restarts = max 2 (int_of_float (duration /. 40.)) in
    let slots = n_restarts + 1 (* the partition takes the last slot *) in
    let slot = (t1 -. t0) /. float_of_int slots in
    let victims = Array.init nnodes (fun i -> i) in
    Rng.shuffle rng victims;
    let ev = ref [] in
    for i = 0 to n_restarts - 1 do
      let at = t0 +. (float_of_int i *. slot) +. (0.1 *. slot *. Rng.float rng) in
      let node = victims.(i mod nnodes) in
      let downtime = 0.05 +. (0.25 *. slot *. Rng.float rng) in
      ev := { at; fault = Crash_restart { node; downtime } } :: !ev
    done;
    let part_at = t0 +. (float_of_int n_restarts *. slot) +. (0.05 *. slot *. Rng.float rng) in
    let isolated = victims.(n_restarts mod nnodes) in
    let rest = List.filter (fun n -> n <> isolated) (List.init nnodes Fun.id) in
    ev :=
      { at = part_at; fault = Partition { a = [ isolated ]; b = rest; duration = 0.35 *. slot } }
      :: !ev;
    (* One degraded SSD across most of the run: slow, never lossy. *)
    ev :=
      {
        at = 0.05 *. duration;
        fault =
          Ssd_degrade
            { node = victims.(1 mod nnodes); ssd = 0; factor = 4.0; duration = 0.8 *. duration };
      }
      :: !ev;
    (* Light background link loss on one node: timeouts and retries, no
       safety impact (an acknowledged write already cleared the chain). *)
    ev :=
      {
        at = 0.1 *. duration;
        fault =
          Link_loss
            { node = victims.(nnodes - 1); prob = 0.02; duration = 0.3 *. duration };
      }
      :: !ev;
    (* At-rest bit-rot, aimed at the partition victim and only when that
       victim is distinct from every crash-restart victim: a node that
       replays its logs with a rotted frame truncates its recovery scan
       at the rot (the torn-tail rule), and without a COPY afterwards the
       truncated tail would read as silently stale — a data-loss scenario
       the scrubber cannot see. The partition victim never replays unless
       expelled, and an expelled node rejoins through the full COPY. *)
    if bit_rot && n_restarts < nnodes then begin
      let victim = victims.(n_restarts mod nnodes) in
      List.iter
        (fun frac ->
          let at = t0 +. (frac *. slot) in
          let flips = 24 + Rng.int rng 16 in
          ev := { at; fault = Bit_rot { node = victim; flips } } :: !ev)
        [ 0.15; 0.55 ]
    end;
    (* Gray failure: one node's compute path slows 10x across most of the
       run, plus a creeping inbound jitter ramp on its links. Victim
       safety: a fail-slow must never stack on a crash-restart victim —
       the slow node's fenced re-copy and the crash's rejoin would race
       the same arcs — so it only fires when a node beyond both the
       crash-restart victims and the partition victim exists. Fail-slow
       is not a failure (the node keeps serving, slowly), so overlapping
       the link-loss / SSD-degrade background noise is fine. *)
    if fail_slow && n_restarts + 1 < nnodes then begin
      let victim = victims.((n_restarts + 1) mod nnodes) in
      let at = 0.1 *. duration in
      let slow_for = 0.7 *. duration in
      ev := { at; fault = Fail_slow { node = victim; factor = 10.0; duration = slow_for } } :: !ev;
      ev :=
        {
          at = at +. (0.05 *. duration);
          fault =
            Link_jitter_ramp
              {
                node = victim;
                peak = 200e-6;
                ramp = 0.1 *. duration;
                duration = 0.4 *. duration;
                inbound = true;
              };
        }
        :: !ev
    end;
    make !ev
end

(* ------------------------------------------------------------------ *)

module Injector = struct
  type t = {
    cluster : Cluster.t;
    rng : Rng.t;
    mutable pending : int; (* fault processes not yet fully healed *)
    mutable log : (float * string) list; (* newest first *)
    mutable first_fail_slow : float option;
        (* when the first Fail_slow struck: where Chaos's detection
           latency starts *)
  }

  let find_node t id =
    (* Cluster.nodes keeps crashed nodes (only graceful removal deletes
       them), so faults can address a node the control plane expelled. *)
    match List.find_opt (fun n -> Node.id n = id) (Cluster.nodes t.cluster) with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Fault.Injector: unknown node %d" id)

  let endpoint_id t id = Netsim.id (Rpc.endpoint (Node.rpc (find_node t id)))

  (* The node and its drive [ssd], which must exist. *)
  let find_ssd t node ssd =
    let n = find_node t node in
    let devs = Engine.devices (Node.engine n) in
    if ssd < 0 || ssd >= Array.length devs then
      invalid_arg (Printf.sprintf "Fault.Injector: node %d has no ssd %d" node ssd);
    (n, devs.(ssd))

  let note t what = t.log <- (Sim.now (), what) :: t.log

  let is_member t id = List.mem id (Control.node_ids (Cluster.control t.cluster))

  (* Re-admit a node the failure detector expelled while a network fault
     made it unreachable: its process never died, but its membership (and
     its arcs) are gone, so it must replay logs and rejoin like any
     restarting node. A node still in the membership needs nothing. *)
  let readmit_if_expelled t id =
    if not (is_member t id) then begin
      note t (Printf.sprintf "node %d expelled during network fault; rejoining" id);
      ignore (Cluster.restart_node t.cluster id)
    end

  (* The gray-failure ladder may have fenced a fail-slow node (stage 3
     runs the §3.8 failure path, expelling it while its process lives).
     The expulsion's chain repair can still be in flight when the
     slowness heals — the node then still reads as a member and a bare
     readmit check would skip it, leaving it out of the cluster forever
     once the repair lands. Wait for a fenced node's expulsion to
     complete, then re-admit it like any node a network fault got
     expelled. *)
  let readmit_if_fenced t id =
    while is_member t id && Control.slow_stage (Cluster.control t.cluster) id >= 3 do
      Sim.delay 0.05
    done;
    readmit_if_expelled t id

  (* Install a fabric rule for [duration] seconds, then remove it. *)
  let with_rule t rule duration =
    let rid = Netsim.add_fault (Cluster.fabric t.cluster) rule in
    Sim.delay duration;
    Netsim.remove_fault (Cluster.fabric t.cluster) rid

  (* A rule matching every message to or from endpoint [eid]. *)
  let touching eid action src dst =
    if Netsim.id src = eid || Netsim.id dst = eid then action src dst else None

  let apply t (fault : Schedule.fault) =
    note t (Schedule.fault_to_string fault);
    match fault with
    | Schedule.Crash id -> Node.crash (find_node t id)
    | Schedule.Crash_restart { node; downtime } ->
        Node.crash (find_node t node);
        Sim.delay downtime;
        let copied = Cluster.restart_node t.cluster node in
        note t (Printf.sprintf "node %d restarted (%d pairs re-copied)" node copied)
    | Schedule.Partition { a; b; duration } ->
        let ids l = List.map (endpoint_id t) l in
        let ia = ids a and ib = ids b in
        with_rule t
          (fun src dst ->
            let s = Netsim.id src and d = Netsim.id dst in
            if (List.mem s ia && List.mem d ib) || (List.mem s ib && List.mem d ia) then
              Some Netsim.Drop
            else None)
          duration;
        note t "partition healed";
        List.iter (readmit_if_expelled t) (a @ b)
    | Schedule.Link_loss { node; prob; duration } ->
        let eid = endpoint_id t node in
        (* Drop decisions are a stateless hash of (key, src, dst,
           per-pair message index), not draws from a shared stream: two
           messages on different links sent at the same instant would
           otherwise swap their draws when the tie-break order flips,
           and the loss pattern — hence retries, timeouts, the digest —
           would differ across legal orderings. Per-pair indices are
           stable because each sender's messages on one link are issued
           by one sequential process. *)
        let key = Rng.int t.rng 0x3FFFFFFF in
        let counts = Hashtbl.create 64 in
        with_rule t
          (touching eid (fun src dst ->
               let s = Netsim.id src and d = Netsim.id dst in
               let pair = (s lsl 20) lor d in
               let c = Option.value ~default:0 (Hashtbl.find_opt counts pair) in
               Hashtbl.replace counts pair (c + 1);
               if Rng.hash_float key s d c < prob then Some Netsim.Drop else None))
          duration;
        readmit_if_expelled t node
    | Schedule.Link_jitter { node; extra; duration } ->
        let eid = endpoint_id t node in
        with_rule t (touching eid (fun _ _ -> Some (Netsim.Delay extra))) duration
    | Schedule.Link_jitter_ramp { node; peak; ramp; duration; inbound } ->
        let eid = endpoint_id t node in
        let start = Sim.now () in
        let knee = start +. ramp in
        with_rule t
          (fun src dst ->
            let hit = if inbound then Netsim.id dst = eid else Netsim.id src = eid in
            if not hit then None
            else
              let frac =
                if ramp <= 0. || Sim.reached knee then 1.0 else (Sim.now () -. start) /. ramp
              in
              Some (Netsim.Delay (peak *. frac)))
          duration;
        readmit_if_expelled t node
    | Schedule.Fail_slow { node; factor; duration } ->
        if t.first_fail_slow = None then t.first_fail_slow <- Some (Sim.now ());
        Node.set_slow_factor (find_node t node) factor;
        Sim.delay duration;
        Node.set_slow_factor (find_node t node) 1.0;
        note t (Printf.sprintf "fail-slow node %d healed" node);
        readmit_if_fenced t node
    | Schedule.Ssd_degrade { node; ssd; factor; duration } ->
        let _, dev = find_ssd t node ssd in
        Blockdev.set_service_factor dev factor;
        Sim.delay duration;
        Blockdev.set_service_factor dev 1.0;
        note t (Printf.sprintf "ssd-degrade node %d ssd %d healed" node ssd)
    | Schedule.Ssd_fail { node; ssd } ->
        let n, dev = find_ssd t node ssd in
        Blockdev.fail dev;
        (* A JBOF that lost a drive of live partitions cannot serve its
           arcs: escalate to fail-stop so the failure detector expels the
           node and chains repair from surviving replicas. *)
        Node.crash n
    | Schedule.Bit_rot { node; flips } ->
        let devs = Engine.devices (Node.engine (find_node t node)) in
        let r = Rng.split t.rng in
        let ndev = Array.length devs in
        (* Spread the flips over the node's drives so both key-log frames
           (escalation path) and value entries (read-repair path) can
           rot; only resident data is targeted, so every flip lands on
           bytes some reader can actually hit. *)
        let flipped = ref 0 in
        for _ = 1 to flips do
          flipped := !flipped + Blockdev.corrupt_resident devs.(Rng.int r ndev) ~rng:r ~flips:1
        done;
        note t (Printf.sprintf "bit-rot node %d: %d bits flipped" node !flipped)

  let arm ?(rng = Rng.create 4242) cluster (sched : Schedule.t) =
    let t = { cluster; rng = Rng.split rng; pending = 0; log = []; first_fail_slow = None } in
    List.iter
      (fun { Schedule.at; fault } ->
        t.pending <- t.pending + 1;
        Sim.spawn ~label:("fault:" ^ Schedule.fault_to_string fault) (fun () ->
            Sim.delay at;
            apply t fault;
            t.pending <- t.pending - 1))
      sched;
    t

  let pending t = t.pending

  let wait_quiesced t =
    while t.pending > 0 do
      Sim.delay 0.05
    done

  let log t = List.rev t.log
end

(* ------------------------------------------------------------------ *)

module Chaos = struct
  type config = {
    seed : int;
    nnodes : int;
    r : int;
    proto : Replication.proto;
        (* replication protocol under test: both must pass the same
           schedules with the same invariants *)
    nclients : int;
    nkeys : int;
    object_size : int;
    duration : float;
    write_ratio : float;
    outage_bound : float;
    schedule : Schedule.t option;
    bit_rot : bool;
        (* inject at-rest bit flips and run the background scrubber *)
    fail_slow : bool;
        (* add a gray failure (10x compute slowdown + inbound jitter
           ramp) to the generated schedule *)
    naive : bool;
        (* strip the gray-failure defenses: no hedged reads, no adaptive
           timeouts, no slow-outlier detection — the static-timeout
           baseline the paper-style comparison degrades *)
    op_deadline : float;
        (* per-op SLO deadline handed to clients (0 = none); expired ops
           are shed client-side and engine-side *)
    ops_per_worker : int option;
        (* Some n: each worker issues exactly n ops instead of looping
           until [duration] elapses. Fixed op counts make the op totals
           (and hence the race-detection digest) structurally invariant
           under tie-break perturbation; the race harness uses this
           mode. *)
    cache : bool;
        (* arm the in-network hot-object cache (DESIGN.md §15): same
           schedules, same invariants — the cache must never make a
           linearizable history illegal *)
  }

  let default_config =
    {
      seed = 42;
      nnodes = 4;
      r = 3;
      proto = Replication.Crrs;
      nclients = 4;
      nkeys = 192;
      object_size = 256;
      duration = 6.0;
      write_ratio = 0.5;
      outage_bound = 2.5;
      schedule = None;
      bit_rot = false;
      fail_slow = false;
      naive = false;
      op_deadline = 0.;
      ops_per_worker = None;
      cache = false;
    }

  let fast_config = { default_config with nnodes = 3; nkeys = 96; nclients = 3; duration = 4.0 }

  type report = {
    schedule : string;
    proto : string;
    ops : int;
    reads : int;
    writes : int;
    failed_ops : int;
    null_reads : int;
    corrupt_values : int;
    lost_writes : int;
    stale_replicas : int;
    incomplete_chains : int;
    max_outage : float;
    live_nodes : int;
    counters : Backend.counters; (* the cluster's registry at the end of the run *)
    verify_bad : int;
    get_p99 : float;
    get_p999 : float;
    put_p99 : float;
    put_p999 : float;
    detection_latency : float;
        (* seconds from the first Fail_slow application to the first
           slow-ladder event the control plane logged; negative when
           either never happened *)
    lin_checked_keys : int;
        (* keys whose full operation history the Wing–Gong checker
           searched *)
    lin_violations : int; (* keys with no legal linearization — must be 0 *)
    lin_detail : string; (* first violation's explanation ("" when none) *)
    failed_invariants : string list;
        (* names of end-of-run invariants that did not hold, in check
           order; [ok] is their conjunction *)
    ok : bool;
    digest : string;
    state_digest : string;
        (* digest of the tie-break-invariant observables only: the final
           value (key id, sequence) of every key as read through a
           client, plus the acknowledged-write ledger. Unlike [digest]
           it excludes timing-shaped fields (max_outage, retries,
           message counts), so it must be identical not just across
           same-seed runs but across every legal tie-break ordering —
           the property `leed race` checks. *)
  }

  (* --- sequence-numbered values: "cNNNNNN.sNNNNNNNNN." + padding --- *)

  let key_of i = Printf.sprintf "chaos-%06d" i

  let encode ~size i seq =
    let hdr = Printf.sprintf "c%06d.s%09d." i seq in
    let b = Bytes.make (max size (String.length hdr)) 'x' in
    Bytes.blit_string hdr 0 b 0 (String.length hdr);
    b

  let decode b =
    (* returns (key id, seq) if the payload carries a valid header *)
    if Bytes.length b < 19 then None
    else
      let s = Bytes.sub_string b 0 19 in
      if s.[0] = 'c' && s.[7] = '.' && s.[8] = 's' && s.[18] = '.' then
        match (int_of_string_opt (String.sub s 1 6), int_of_string_opt (String.sub s 9 9)) with
        | Some i, Some seq -> Some (i, seq)
        | _ -> None
      else None

  (* scaled-down drive capacity *)
  let ssd_capacity = 192 * 1024 * 1024

  let scaled_platform =
    { Platform.smartnic_jbof with Platform.ssd = Blockdev.with_capacity Blockdev.dct983 ssd_capacity }

  let cluster_config cfg =
    {
      Cluster.default_config with
      Cluster.nnodes = cfg.nnodes;
      r = cfg.r;
      proto = cfg.proto;
      platform = scaled_platform;
      client_config =
        {
          Client.default_config with
          Client.op_deadline = cfg.op_deadline;
          (* naive = the static-timeout, no-hedge, no-ladder baseline *)
          gray_defenses = not cfg.naive;
        };
      cache =
        (if cfg.cache then Netcache.enabled Netcache.default_config
         else Netcache.default_config);
      engine_config =
        {
          Engine.default_config with
          Engine.store_config =
            { Store.default_config with Store.nsegments = 2048 };
        };
    }

  (* The registry counters [digest] folds in, as three runs in digest
     order; chaos's own observables sit between them. A field naming
     several counters folds their sum. *)
  let digest_health =
    [ [ "control.joins" ]; [ "control.leaves" ]; [ "control.failures_handled" ];
      [ "netsim.dropped" ]; [ "netsim.delayed" ]; [ "client.nacks" ]; [ "client.retries" ];
      [ "client.backoff_s" ]; [ "blockdev.reads"; "blockdev.writes" ];
      [ "node.scrubbed_segments" ]; [ "node.read_repairs" ]; [ "node.scrub_repairs" ];
      [ "store.corrupt_reads" ] ]

  let digest_gray =
    [ [ "client.hedges" ]; [ "client.hedge_wins" ]; [ "client.sheds"; "engine.sheds" ];
      [ "control.slow_events" ] ]

  let digest_replication =
    [ [ "node.write_applies" ]; [ "client.quorum_rounds" ]; [ "client.writebacks" ];
      [ "netcache.hits" ]; [ "netcache.misses" ]; [ "netcache.invalidations" ];
      [ "netcache.sprays" ]; [ "netsim.consumed" ] ]

  let digest_counters = List.concat (digest_health @ digest_gray @ digest_replication)

  (* Float sums print exactly ([%h]); counts print as integers. *)
  let digest_field counters names =
    match List.map (fun n -> List.assoc_opt n counters) names with
    | [ Some (Backend.Sum f) ] -> Printf.sprintf "%h" f
    | _ -> string_of_int (List.fold_left (fun acc n -> acc + Backend.count counters n) 0 names)

  let digest_of_fields fields = Digest.to_hex (Digest.string (String.concat "|" fields))

  (* --- the five phases of [run]: start, load, heal, sweep, judge --- *)

  module Histogram = Leed_stats.Histogram

  (* What the phases share: the cluster under test, the per-key write
     ledgers, the operation history, and the client-observed tallies. *)
  type world = {
    cfg : config;
    cluster : Cluster.t;
    clients : Client.t array;
    sched : Schedule.t;
    attempted : int array;
    acked : int array;
        (* Per-key write ledgers. [attempted] is the highest sequence a
           client ever issued toward the key; [acked] the highest whose
           put returned. The chain may legitimately hold anything in
           [acked, attempted] (a failed write can linger at the head),
           but never below [acked]: that would be acknowledged-write
           loss. *)
    hist : History.t;
        (* every completed client operation; the Wing–Gong checker
           judges it per key after the sweep (the sixth invariant) *)
    get_hist : Histogram.t;
    put_hist : Histogram.t;
        (* every GET's client-observed latency, including failed ones
           (their elapsed time is exactly the tail the SLO cares about);
           PUTs get the same treatment for the protocol comparison *)
    mutable reads : int;
    mutable writes : int;
    mutable failed : int;
    mutable null_reads : int;
    mutable corrupt : int;
    mutable last_ok : float;
    mutable max_gap : float; (* longest stretch without a successful op *)
    mutable scrub_stop : bool;
  }

  let record_op w ~key ~start kind outcome =
    History.record w.hist ~key { History.start; finish = Sim.now (); kind; outcome }

  let success w =
    let now = Sim.now () in
    let gap = now -. w.last_ok in
    if gap > w.max_gap then w.max_gap <- gap;
    w.last_ok <- now

  (* Phase 1: the cluster, its clients and schedule, empty ledgers, and
     every key preloaded at sequence 0 before any fault arms. *)
  let start cfg =
    let cluster = Cluster.create ~config:(cluster_config cfg) () in
    let clients = Array.init cfg.nclients (fun _ -> Cluster.client cluster) in
    let sched =
      match cfg.schedule with
      | Some s -> s
      | None ->
          Schedule.random ~bit_rot:cfg.bit_rot ~fail_slow:cfg.fail_slow ~seed:cfg.seed
            ~nnodes:cfg.nnodes ~duration:cfg.duration ()
    in
    let w =
      { cfg; cluster; clients; sched; attempted = Array.make cfg.nkeys 0;
        acked = Array.make cfg.nkeys 0; hist = History.create (); get_hist = Histogram.create ();
        put_hist = Histogram.create (); reads = 0; writes = 0; failed = 0; null_reads = 0;
        corrupt = 0; last_ok = 0.; max_gap = 0.; scrub_stop = false }
    in
    for k = 0 to cfg.nkeys - 1 do
      let t0 = Sim.now () in
      Client.put clients.(0) (key_of k) (encode ~size:cfg.object_size k 0);
      record_op w ~key:(key_of k) ~start:t0 (History.Write (Some 0)) History.Ok
    done;
    w.last_ok <- Sim.now ();
    w

  (* A worker's write of the next sequence to key [k], which it owns. *)
  let write w c k =
    let seq = w.attempted.(k) + 1 in
    w.attempted.(k) <- seq;
    let t0 = Sim.now () in
    let lat () = Histogram.record w.put_hist (Sim.now () -. t0) in
    match Client.put c (key_of k) (encode ~size:w.cfg.object_size k seq) with
    | () ->
        lat ();
        if seq > w.acked.(k) then w.acked.(k) <- seq;
        record_op w ~key:(key_of k) ~start:t0 (History.Write (Some seq)) History.Ok;
        w.writes <- w.writes + 1;
        success w
    | exception Client.Unavailable _ ->
        lat ();
        (* ambiguous: the write may still have taken effect — the
           checker explores both branches *)
        record_op w ~key:(key_of k) ~start:t0 (History.Write (Some seq)) History.Failed;
        w.failed <- w.failed + 1

  (* A worker's validating read of key [k]. [attempted.(k)] is set before
     the owner issues, and only ever grows, so the bound cannot race. *)
  let read w c k =
    let t0 = Sim.now () in
    let lat () = Histogram.record w.get_hist (Sim.now () -. t0) in
    match Client.get c (key_of k) with
    | Some v ->
        lat ();
        (match decode v with
        | Some (i, s) when i = k && s <= w.attempted.(k) ->
            record_op w ~key:(key_of k) ~start:t0 (History.Read (Some s)) History.Ok
        | _ -> w.corrupt <- w.corrupt + 1);
        w.reads <- w.reads + 1;
        success w
    | None ->
        (* The key was preloaded, so a miss means the serving side
           claims it absent. What that implies is protocol-specific.
           Under ABD a [None] is a COMPLETED quorum read — a majority
           answered and the highest tag among them carried no value — so
           it is a genuine register observation and joins the history:
           the checker then flags a protocol that wrongly serves "key
           absent" for a present key (e.g. a quorum dominated by hollow
           replicas after a botched membership copy), which a later heal
           would otherwise mask. Under CRRS a miss is one replica lacking
           the key (mid-repair, mid-rejoin) — the chaos contract treats
           that as transient unavailability, like a failed read, and
           recording it would turn tolerated unavailability into a
           linearizability verdict. The end-of-run sweep's reads — taken
           after the heal, when a miss genuinely means loss — join the
           history for both protocols. *)
        lat ();
        if w.cfg.proto = Replication.Abd then
          record_op w ~key:(key_of k) ~start:t0 (History.Read None) History.Ok;
        w.null_reads <- w.null_reads + 1;
        w.reads <- w.reads + 1
    | exception Client.Unavailable _ ->
        lat ();
        w.failed <- w.failed + 1

  (* Phase 2: arm the injector, start the scrubber under [bit_rot], and
     run the closed-loop workers, for [ops_per_worker] ops each or for
     [duration]. Worker [i] owns keys congruent to i mod nclients, so no
     two processes ever race a write to the same key — the ledger stays
     exact without cross-worker ordering assumptions. A quarter of reads
     leave the worker's own shard: cross-client read concurrency is what
     gives the linearizability oracle teeth. *)
  let load w =
    let cfg = w.cfg in
    let inj = Injector.arm ~rng:(Rng.create (cfg.seed lxor 0x5eed)) w.cluster w.sched in
    (* Background scrubbing runs for the whole faulted window; its
       token-gated segment walks heal rot concurrently with the
       foreground load. *)
    if cfg.bit_rot then Scrub.spawn ~period:0.4 ~stop:(fun () -> w.scrub_stop) w.cluster;
    let shard = cfg.nkeys / cfg.nclients in
    let rngs = Array.init cfg.nclients (fun i -> Rng.create (cfg.seed lxor (0x9e3779b9 + i))) in
    let op i =
      let c = w.clients.(i) and rng = rngs.(i) in
      let k = (i + (cfg.nclients * Rng.int rng shard)) mod cfg.nkeys in
      if Rng.float rng < cfg.write_ratio then write w c k
      else read w c (if Rng.float rng < 0.25 then Rng.int rng cfg.nkeys else k)
    in
    let result =
      match cfg.ops_per_worker with
      | Some ops -> Driver.fixed ~label:"chaos" ~workers:cfg.nclients ~ops op
      | None -> Driver.closed ~label:"chaos" ~workers:cfg.nclients ~duration:cfg.duration op
    in
    (inj, result)

  (* Phase 3: let the schedule finish healing, give repairs a 1 s grace
     window, and stop the scrubber so the final blocking heal is the last
     integrity actor: one full scrub pass (read-repair plus arc re-COPY
     escalation), then the ground-truth verify walk — every replica of
     every key must be checksum-clean. Returns the bad frames it found. *)
  let heal w inj =
    Injector.wait_quiesced inj;
    Sim.delay 1.0;
    w.scrub_stop <- true;
    if w.cfg.bit_rot then begin
      ignore (Scrub.run_once w.cluster);
      let v = Scrub.verify_all w.cluster in
      v.Scrub.bad_values + v.Scrub.bad_segments
    end
    else 0

  type swept = {
    live : int; (* members after the heal *)
    lost : int;
    stale : int;
    bad_chains : int;
    state : string; (* one "k:seq/acked" cell per key, for [state_digest] *)
  }

  (* Phase 4: read every key back through a client, then check each chain
     replica's engine value against the ledger. *)
  let sweep w =
    let cfg = w.cfg in
    let control = Cluster.control w.cluster in
    let live = List.length (Control.node_ids control) in
    let full_chain = min cfg.r live in
    let lost = ref 0 and stale = ref 0 and bad_chains = ref 0 in
    let vc = w.clients.(0) in
    (* Raw engine bytes carry the protocol's storage framing (ABD tags);
       strip it before decoding sequence numbers. *)
    let module P = (val Abd.protocol cfg.proto : Replication.S) in
    let state = Buffer.create (cfg.nkeys * 16) in
    let cell fmt = Printf.bprintf state fmt in
    for k = 0 to cfg.nkeys - 1 do
      let key = key_of k and acked = w.acked.(k) and attempted = w.attempted.(k) in
      let chain = Ring.chain (Control.ring control) ~r:cfg.r key in
      let chain_nodes = List.map (fun (e : Ring.entry) -> e.Ring.owner.Ring.node) chain in
      if
        List.length chain <> full_chain
        || List.length (List.sort_uniq compare chain_nodes) <> List.length chain
      then incr bad_chains;
      (* Client-level: the acknowledged prefix must be readable. The
         sweep read joins the history too — under ABD it is also what
         synchronously writes the winning tag back to replicas that
         missed writes, so it must precede the engine walk. *)
      let t0 = Sim.now () in
      (match Client.get vc key with
      | Some v -> (
          match decode v with
          | Some (i, s) when i = k && s >= acked && s <= attempted ->
              record_op w ~key ~start:t0 (History.Read (Some s)) History.Ok;
              cell "%d:%d/%d;" k s acked
          | Some _ | None ->
              cell "%d:garbled/%d;" k acked;
              incr lost)
      | None ->
          record_op w ~key ~start:t0 (History.Read None) History.Ok;
          cell "%d:miss/%d;" k acked;
          incr lost
      | exception Client.Unavailable _ ->
          cell "%d:unavail/%d;" k acked;
          incr lost);
      (* Per-replica durability, straight through the engines: every
         chain member must hold the key at >= the acknowledged sequence
         (a failed write may leave a newer value at the head — legal —
         but a replica below [acked] missed a repair. ABD replicas owe
         the same bound because the sweep read above write-back-repairs
         any replica the quorum outran). *)
      List.iter
        (fun (e : Ring.entry) ->
          let n = Control.node control e.Ring.owner.Ring.node in
          match Engine.submit (Node.engine n) ~pid:e.Ring.owner.Ring.vidx (Engine.Get key) with
          | Ok (Some v) -> (
              match Option.bind (P.payload_of_stored v) decode with
              | Some (i, s) when i = k && s >= acked && s <= attempted -> ()
              | _ -> incr stale)
          | Ok None | Error (Engine.Failed | Engine.Shed) -> incr stale
          | Error Engine.Corrupt -> w.corrupt <- w.corrupt + 1
          | Error Engine.Overloaded -> ())
        chain
    done;
    { live; lost = !lost; stale = !stale; bad_chains = !bad_chains; state = Buffer.contents state }

  (* The Wing–Gong verdict over every key's history: (keys checked, keys
     with no legal linearization, the first violation's explanation). *)
  let linearizability hist =
    let keys = History.keys hist in
    List.fold_left
      (fun (checked, violations, detail) key ->
        match History.check_key hist key with
        | History.Linearizable -> (checked, violations, detail)
        | History.Violation { key; detail = d } ->
            let detail = if detail = "" then Printf.sprintf "key %s: %s" key d else detail in
            (checked, violations + 1, detail))
      (List.length keys, 0, "") keys

  (* [digest]'s fields, in their fixed order. *)
  let digest_of_report ~seed (r : report) =
    let f = Printf.sprintf "%h" and i = string_of_int and c = digest_field r.counters in
    digest_of_fields
      ([ i seed; r.proto; i r.ops; i r.reads; i r.writes; i r.failed_ops; i r.null_reads;
         i r.corrupt_values; i r.lost_writes; i r.stale_replicas; i r.incomplete_chains;
         f r.max_outage; i r.live_nodes ]
      @ List.map c digest_health
      @ [ i r.verify_bad; f r.get_p99; f r.get_p999 ]
      @ List.map c digest_gray
      @ [ f r.detection_latency; f r.put_p99; f r.put_p999 ]
      @ List.map c digest_replication
      @ [ i r.lin_checked_keys; i r.lin_violations ])

  (* Phase 5: the linearizability check, counters, detection latency,
     tails, the invariant list and both digests. *)
  let judge w inj (result : Driver.result) ~verify_bad (s : swept) =
    let lin_checked_keys, lin_violations, lin_detail = linearizability w.hist in
    (* Detection latency: the first Fail_slow application to the first
       slow-ladder event the control plane pushed. *)
    let detection_latency =
      match (inj.Injector.first_fail_slow, Control.slow_log (Cluster.control w.cluster)) with
      | Some t0, (t1, _, _) :: _ when t1 >= t0 -> t1 -. t0
      | _ -> -1.
    in
    let outage_ok = w.cfg.outage_bound <= 0. || w.max_gap <= w.cfg.outage_bound in
    let failed_invariants =
      List.filter_map
        (fun (name, failed) -> if failed then Some name else None)
        [
          ("lost-writes", s.lost > 0);
          ("stale-replicas", s.stale > 0);
          ("incomplete-chains", s.bad_chains > 0);
          ("corrupt-reads", w.corrupt > 0);
          ("verify-bad", verify_bad > 0);
          ("outage-bound", not outage_ok);
          ("linearizability", lin_violations > 0);
        ]
    in
    let pct = Histogram.percentile in
    let r =
      { schedule = Schedule.to_string w.sched; proto = Replication.proto_to_string w.cfg.proto;
        ops = result.Driver.ops; reads = w.reads; writes = w.writes; failed_ops = w.failed;
        null_reads = w.null_reads; corrupt_values = w.corrupt; lost_writes = s.lost;
        stale_replicas = s.stale; incomplete_chains = s.bad_chains; max_outage = w.max_gap;
        live_nodes = s.live; counters = Leed_backend.counters w.cluster; verify_bad;
        get_p99 = pct w.get_hist 0.99; get_p999 = pct w.get_hist 0.999;
        put_p99 = pct w.put_hist 0.99; put_p999 = pct w.put_hist 0.999; detection_latency;
        lin_checked_keys; lin_violations; lin_detail; failed_invariants;
        ok = failed_invariants = []; digest = ""; state_digest = "" }
    in
    {
      r with
      digest = digest_of_report ~seed:w.cfg.seed r;
      state_digest =
        digest_of_fields
          [ s.state; string_of_int s.lost; string_of_int w.corrupt; string_of_int verify_bad;
            string_of_int lin_violations ];
    }

  let run ?checks ?tiebreak ?sched ?on_dispatch (cfg : config) =
    if cfg.nkeys < cfg.nclients then invalid_arg "Chaos.run: nkeys must be >= nclients";
    Sim.run ?checks ?tiebreak ?sched ?on_dispatch (fun () ->
        let w = start cfg in
        let inj, result = load w in
        let verify_bad = heal w inj in
        let swept = sweep w in
        judge w inj result ~verify_bad swept)

  let pp_report fmt (r : report) =
    let c = Backend.count r.counters in
    Format.fprintf fmt
      "@[<v>schedule:@,%s@,\
       proto      %s@,\
       ops        %8d  (reads %d, writes %d, failed %d)@,\
       reads      null %d, corrupt %d@,\
       writes     lost %d (acked-write loss)@,\
       replicas   stale %d, incomplete chains %d@,\
       outage     max %.3fs@,\
       membership live %d nodes; joins %d, leaves %d, failures handled %d@,\
       network    dropped %d, delayed %d@,\
       clients    nacks %d, retries %d, backoff %.3fs@,\
       nvme       %d accesses@,\
       integrity  scrubbed %d segments; read-repairs %d, scrub-repairs %d, post-heal bad %d@,\
       get tail   p99 %.1fus, p99.9 %.1fus@,\
       put tail   p99 %.1fus, p99.9 %.1fus@,\
       replication write applies %d; quorum rounds %d, write-backs %d@,\
       cache      hits %d, misses %d, invalidations %d, sprays %d@,\
       linearizability %d keys checked, %d violations%s@,\
       gray       hedges %d (wins %d), sheds %d, slow events %d, detection %.3fs@,\
       digest     %s@,\
       verdict    %s@]"
      r.schedule r.proto r.ops r.reads r.writes r.failed_ops r.null_reads r.corrupt_values
      r.lost_writes r.stale_replicas r.incomplete_chains r.max_outage r.live_nodes
      (c "control.joins") (c "control.leaves") (c "control.failures_handled")
      (c "netsim.dropped") (c "netsim.delayed") (c "client.nacks") (c "client.retries")
      (Backend.sum r.counters "client.backoff_s")
      (Backend.nvme_accesses r.counters) (c "node.scrubbed_segments") (c "node.read_repairs")
      (c "node.scrub_repairs") r.verify_bad
      (Leed_sim.Sim.to_us r.get_p99) (Leed_sim.Sim.to_us r.get_p999)
      (Leed_sim.Sim.to_us r.put_p99) (Leed_sim.Sim.to_us r.put_p999)
      (c "node.write_applies") (c "client.quorum_rounds") (c "client.writebacks")
      (c "netcache.hits") (c "netcache.misses") (c "netcache.invalidations") (c "netcache.sprays")
      r.lin_checked_keys r.lin_violations
      (if r.lin_detail = "" then "" else "\n  " ^ r.lin_detail)
      (c "client.hedges") (c "client.hedge_wins") (Backend.sheds r.counters)
      (c "control.slow_events") r.detection_latency r.digest
      (if r.ok then "OK"
       else "INVARIANT VIOLATED: " ^ String.concat ", " r.failed_invariants)
end
