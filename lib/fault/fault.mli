(** Deterministic fault injection and chaos testing (the robustness
    counterpart of paper §3.8).

    A {!Schedule} is a declarative list of timed fault events; an
    {!Injector} arms one against a running [Cluster] through the
    per-layer hooks ([Netsim] link rules, [Blockdev] degradation /
    death, [Node.crash] + [Cluster.restart_node]); {!Chaos} runs seeded
    random schedules under load and asserts end-of-run invariants,
    reporting a digest that is bit-identical across same-seed runs. *)

module Schedule : sig
  type fault =
    | Crash of int  (** permanent fail-stop of a node *)
    | Crash_restart of { node : int; downtime : float }
        (** fail-stop, then after [downtime] the full recovery path: log
            replay, segment-table rebuild, rejoin (§3.8) *)
    | Partition of { a : int list; b : int list; duration : float }
        (** drop all traffic between node sets [a] and [b], both ways *)
    | Link_loss of { node : int; prob : float; duration : float }
        (** drop each message to/from [node] with probability [prob]
            (deterministic seeded stream) *)
    | Link_jitter of { node : int; extra : float; duration : float }
        (** add [extra] seconds of switch latency to/from [node] *)
    | Ssd_degrade of { node : int; ssd : int; factor : float; duration : float }
        (** multiply one drive's service times (brown-out / throttle) *)
    | Ssd_fail of { node : int; ssd : int }
        (** kill one drive; escalates to node fail-stop, since a JBOF
            missing a live partition cannot serve its arcs *)
    | Bit_rot of { node : int; flips : int }
        (** flip [flips] random bits in resident (written) data across
            the node's drives — at-rest corruption the checksums must
            catch and the scrubber / read-repair must heal *)
    | Fail_slow of { node : int; factor : float; duration : float }
        (** gray failure: the node's NIC-CPU compute path runs [factor]×
            slower while the node keeps answering heartbeats and holding
            tokens — invisible to the fail-stop detector, the fault the
            hedging / slow-outlier machinery exists for. [factor] ≥ 1. *)
    | Link_jitter_ramp of
        { node : int; peak : float; ramp : float; duration : float; inbound : bool }
        (** asymmetric creeping jitter: added delay grows linearly from 0
            to [peak] seconds over [ramp] seconds, holds until [duration]
            elapses, and applies in one direction only — toward the node
            when [inbound], away otherwise *)

  type event = { at : float; fault : fault }

  type t = event list

  val make : event list -> t
  (** Sort events by time (stable). *)

  val to_string : t -> string

  val to_wire : t -> string
  (** Machine-readable schedule text: one event per line, floats printed
      with [%h] so {!of_wire} round-trips bit-exactly. *)

  val of_wire : string -> t
  (** Parse {!to_wire} output (blank lines ignored). Raises
      [Invalid_argument] on malformed input. *)

  val random :
    ?bit_rot:bool -> ?fail_slow:bool -> seed:int -> nnodes:int -> duration:float -> unit -> t
  (** A seeded random schedule under the safety envelope: >= 2
      crash-restarts and one partition in disjoint time slots (at most
      one node-level fault in flight, so R >= 2 suffices for zero
      acknowledged-write loss), plus one long SSD degradation and light
      link loss, which may overlap anything. [bit_rot] adds at-rest bit
      flips aimed at the partition victim — never a crash-restart victim,
      whose recovery replay would truncate at the rot without the COPY
      an expelled node gets on rejoin. [fail_slow] adds a 10× compute
      slowdown plus an inbound jitter ramp on a node distinct from every
      crash-restart victim and the partition victim (skipped when no
      such node exists — a fenced slow node's re-copy must not race a
      crash victim's rejoin on the same arcs). *)
end

module Injector : sig
  type t

  val arm : ?rng:Leed_sim.Rng.t -> Leed_core.Cluster.t -> Schedule.t -> t
  (** Spawn one process per event; each sleeps until its time, applies
      the fault through the layer hooks, and heals it when its duration
      elapses. Network faults that get a node expelled by the failure
      detector re-admit it (log replay + rejoin) on heal. [rng] seeds
      the loss streams. *)

  val pending : t -> int
  (** Events not yet fully applied and healed. *)

  val wait_quiesced : t -> unit
  (** Block until every event has healed (polls; call from a process). *)

  val log : t -> (float * string) list
  (** Timestamped actions taken, oldest first. *)
end

module Chaos : sig
  type config = {
    seed : int;
    nnodes : int;
    r : int;
    proto : Leed_core.Replication.proto;
        (** replication protocol under test (default [Crrs]); every
            schedule must pass the same invariants under both *)
    nclients : int;
    nkeys : int;
    object_size : int;
    duration : float;       (** load / fault window, simulated seconds *)
    write_ratio : float;
    outage_bound : float;   (** max tolerated cluster-wide success gap; <= 0 disables *)
    schedule : Schedule.t option;
        (** [None]: generate [Schedule.random] from [seed] *)
    bit_rot : bool;
        (** inject at-rest bit flips, run the background scrubber during
            the load window, and require a checksum-clean cluster after
            the final heal pass *)
    fail_slow : bool;
        (** add a gray failure (10× compute slowdown + inbound jitter
            ramp) to the generated schedule *)
    naive : bool;
        (** strip the gray-failure defenses — no hedged reads, no
            adaptive timeouts, no slow-outlier detection: the
            static-timeout baseline the fail-slow comparison degrades *)
    op_deadline : float;
        (** per-op SLO deadline handed to clients (0 = none); expired
            ops are shed client-side and engine-side *)
    ops_per_worker : int option;
        (** [Some n]: each worker issues exactly [n] ops instead of
            looping until [duration] elapses, making op totals — and
            hence {!report.state_digest} — structurally invariant under
            tie-break perturbation. Used by the [leed race] targets. *)
    cache : bool;
        (** arm the in-network hot-object cache
            ([Leed_core.Netcache], DESIGN.md §15) on the cluster fabric;
            same schedules, same invariants — a cache that ever served a
            stale value would trip the linearizability oracle *)
  }

  val default_config : config
  (** 4 nodes on 192 MiB drives, R = 3, CRRS, 4 clients over 192 keys of
      256 B at 50 % writes for 6 s, seed 42, no optional faults. *)

  val fast_config : config
  (** [default_config] shrunk for smoke runs: 3 nodes, 96 keys,
      3 clients, 4 s. *)

  type report = {
    schedule : string;
    proto : string;          (** protocol the run exercised ("crrs"/"abd") *)
    ops : int;
    reads : int;
    writes : int;
    failed_ops : int;        (** retry budget exhausted (unavailability) *)
    null_reads : int;        (** mid-run misses on preloaded keys *)
    corrupt_values : int;
        (** payloads outside the legal range (mid-run reads) plus corrupt
            replica values (final sweep) *)
    lost_writes : int;       (** acknowledged-write loss — must be 0 *)
    stale_replicas : int;    (** replicas below the acknowledged sequence *)
    incomplete_chains : int; (** chains not back at full replication *)
    max_outage : float;      (** longest cluster-wide gap between successes *)
    live_nodes : int;
    counters : Leed_core.Backend.counters;
        (** the cluster's named counters at the end of the run
            ({!Leed_core.Leed_backend}): membership, network, client
            retry/hedge/shed, nvme, integrity, replication and cache
            activity, read by name *)
    verify_bad : int;        (** checksum failures left after the final heal — must be 0 *)
    get_p99 : float;         (** client-observed GET tail over the whole run, seconds *)
    get_p999 : float;
    put_p99 : float;         (** client-observed PUT tail, seconds *)
    put_p999 : float;
    detection_latency : float;
        (** seconds from the first [Fail_slow] application to the first
            slow-ladder event; negative when either never happened *)
    lin_checked_keys : int;  (** keys the Wing–Gong checker searched *)
    lin_violations : int;    (** keys with no legal linearization — must be 0 *)
    lin_detail : string;     (** first violation's explanation ([""] when none) *)
    failed_invariants : string list;
        (** names of end-of-run invariants that did not hold, in check
            order ([lost-writes], [stale-replicas], [incomplete-chains],
            [corrupt-reads], [verify-bad], [outage-bound],
            [linearizability]); [ok] is their conjunction *)
    ok : bool;               (** all invariants held *)
    digest : string;         (** hex digest — bit-identical across same-seed runs *)
    state_digest : string;
        (** hex digest of the tie-break-invariant observables only: the
            final decoded (key, sequence) of every key read through a
            client plus the acknowledged-write ledger, excluding
            timing-shaped counters. [leed race] requires this to be
            identical across perturbed equal-time event orderings, not
            just across same-seed runs. *)
  }

  val digest_counters : string list
  (** The registry names {!report.digest} folds in, in digest order. A
      name the cluster did not register would read 0 there, so the
      tests check that LEED registers every one. *)

  val run :
    ?checks:bool ->
    ?tiebreak:Leed_sim.Sim.tiebreak ->
    ?sched:Leed_sim.Sim.sched ->
    ?on_dispatch:(Leed_sim.Sim.dispatch -> unit) ->
    config ->
    report
  (** Build a scaled cluster inside [Sim.run ?checks], preload the
      keyspace, run closed-loop sequence-numbered writes and validating
      reads while the schedule plays, then sweep: client-level reads
      must return the acknowledged prefix of every key, every chain
      replica must hold at least the acknowledged sequence, every chain
      must be back at full replication, and the longest success gap must
      stay within [outage_bound]. Keys are sharded per worker, so the
      write ledger is exact. *)

  val pp_report : Format.formatter -> report -> unit
end
