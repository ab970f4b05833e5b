(** Periodic observability sampler.

    Complements the event-driven trace points with a fixed virtual-time
    cadence: every [period] simulated seconds it reads the cluster's live
    gauges — token occupancy, waiting-queue and device queue depths,
    outstanding client RPCs, per-vnode swap state, scheduler heap depth —
    feeds them into streaming summaries, and (when {!Leed_trace.Trace.on})
    drops ["obs"]-category counter events on the owning trace rows.

    Everything reads {!Leed_sim.Sim.now} virtual time only, so attaching a
    sampler never perturbs simulated behaviour and traces stay
    deterministic. *)

type t
(** One sampler bound to a cluster. *)

val create : ?period:float -> Cluster.t -> t
(** Build a sampler (not yet running). [period] is the sampling cadence in
    simulated seconds (default 10 ms). *)

val attach : ?period:float -> Cluster.t -> t
(** {!create} + {!start}: begin sampling every [period] simulated seconds
    until {!stop} (requires a running simulation). *)

val start : t -> unit
(** Start the periodic sampling loop (idempotent). *)

val stop : t -> unit
(** Stop sampling at the next tick. *)

val samples : t -> int
(** Number of samples taken so far. *)

val report : t -> unit
(** Print the accumulated gauge summaries (mean/max per gauge) as a
    {!Leed_stats.Report} table — the end-of-run flush. No-op before the
    first sample. *)

val top_columns : string list
(** The column names of {!top_rows}, in order. *)

val top_rows : Cluster.t -> string list list
(** A [top]-style instantaneous snapshot: one row per SSD (["jbofN/ssdD"]
    first), in node then device order, with token occupancy, queue
    depths, executed/deferred/denied counts, and swap state, straight off
    the live gauges. The [wait] and [swapped] cells count the SSD's own
    partitions only. *)

val top : Cluster.t -> unit
(** Print {!top_rows} as a table. *)
