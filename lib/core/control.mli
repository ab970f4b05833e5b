(** Control-plane manager (paper §3.1.2, §3.8): the etcd-backed service
    owning the authoritative ring, monitoring node health with heartbeat
    probes, and orchestrating membership changes with the COPY primitive.

    Broadcasts to back-end nodes travel over the simulated network, so the
    inconsistent-view window the paper measures in Figure 9 emerges
    naturally; client watches are delivered with jitter. *)

type t

val create :
  r:int ->
  proto:Replication.proto ->
  heartbeat_period:float ->
  slow_detection:bool ->
  (Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.wire Leed_netsim.Netsim.fabric ->
  t
(** [proto] is the replication protocol every node of the cluster
    hosts ({!Cluster.config}'s [proto]); it decides how a membership COPY
    draws from an arc's sources — the first surviving one, tail first,
    under CRRS; all live ones, merged, under ABD.

    [slow_detection] arms the gray-failure detector:
    heartbeat replies piggyback each node's smoothed service time, every
    probe round scores reporters against the round's median, and a node
    sustaining 3× the median for 3 consecutive rounds walks the
    escalation ladder — deprioritize in CRRS read spreading, then drain,
    then fence and re-copy via the §3.8 failure machinery. The same count
    of consecutive healthy rounds walks stages 1-2 back down.
    {!Cluster.create} passes its client config's [gray_defenses]. *)

val ring : t -> Ring.t
(** The authoritative ring. *)

val r : t -> int
val snapshot : t -> Ring.snapshot
val register_client : t -> Client.t -> unit
(** Add a client to the set that ring broadcasts and slow-ladder levels
    reach. *)

val clients : t -> Client.t list
(** Every registered client, oldest first. *)

val node : t -> int -> Node.t
val node_ids : t -> int list
val peer_resolver : t -> int -> (Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.t

val register_bootstrap_node : t -> Node.t -> unit
(** Insert a node with its vnodes directly RUNNING — cluster bootstrap
    only; follow with {!finish_bootstrap}. *)

val finish_bootstrap : t -> unit

val recopy_vnode : t -> Ring.vnode -> int
(** Scrub escalation: a segment frame on the vnode rotted beyond local
    repair (its item list is gone), so re-copy every arc the vnode
    serves from the other members of each chain, with the usual COPY
    fencing. Like {!join} and {!leave}, it walks a frozen copy of the
    ring, so a membership change while its copies stream cannot abort
    it. Returns pairs copied. *)

val join : t -> Node.t -> int
(** Full §3.8.1 join: vnodes enter JOINING, every affected arc's current
    tail COPYs its range over (with write forwarding and fencing), then
    the vnodes flip to RUNNING. Each copy pass walks a frozen copy of the
    future ring. Returns pairs copied. *)

val leave : t -> int -> int
(** Graceful departure: mark LEAVING (clients stop addressing it), copy
    each affected arc from a surviving chain member to the member that
    newly joined the chain, then delete the vnodes. The copies walk the
    ring frozen as it was before the departure. Returns pairs copied. *)

val restart : t -> Node.t -> int
(** Crash-restart (§3.8.2): replay the node's logs ({!Node.restart}) and
    re-admit it. If the failure detector never expelled it, this is a
    fast revive (miss count cleared, ring view resynced, returns 0); if
    it was failed out, waits for the in-flight repair to delete it and
    rejoins via {!join}, returning pairs copied. Blocks — run from a
    spawned process. *)

val start : t -> unit
(** Start the periodic heartbeat prober, one round every
    [heartbeat_period]; a node that misses 3 consecutive probes is failed
    out and its chains are repaired. Idempotent. *)

type stats = {
  n_joins : int;
  n_leaves : int;
  n_failures_handled : int;
  n_slow_events : int;  (** slow-ladder escalations + de-escalations pushed *)
}

val stats : t -> stats

val slow_log : t -> (float * int * int) list
(** The escalation history in chronological order: (virtual time, node,
    stage), where stage 1 = deprioritized, 2 = drained, 3 = fenced and
    0 = de-escalated back to healthy. The first entry's time is the
    detection latency of a gray failure injected at a known instant. *)

val slow_stage : t -> int -> int
(** The node's current escalation-ladder stage (0 = healthy/unknown). *)
