(** A LEED back-end node (paper §3.7, §3.8): one SmartNIC JBOF running
    the I/O engine, its virtual nodes, and the host side of the selected
    replication protocol.

    The protocol (CRRS chain replication, ABD quorums, ...) lives behind
    the {!Replication} seam: this module owns the engine, the fabric
    endpoint, the ring view and one [Replication.Vstate] of volatile
    protocol state per vnode, and hands the protocol a
    [Replication.server_env] of closures over them. Protocol wire
    traffic dispatches through the seam; COPY, integrity repair,
    membership updates and heartbeats are generic. *)

type t

val create :
  ?proto:Replication.proto ->
  id:int ->
  platform:Leed_platform.Platform.t ->
  fabric:(Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.wire Leed_netsim.Netsim.fabric ->
  engine_config:Engine.config ->
  r:int ->
  unit ->
  t
(** [proto] selects the replication protocol (default [Crrs]). *)

val id : t -> int
(** The node's cluster-unique id. *)

val engine : t -> Engine.t
(** The node's token-scheduled I/O engine. *)

val track : t -> Leed_trace.Trace.track
(** The node's trace row ([jbof<id>]); request spans land here and the
    engine's per-SSD rows are registered beneath it. *)

val rpc : t -> (Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.t
(** The node's RPC endpoint on the fabric. *)

val ring : t -> Ring.t
(** The node's local ring view (refreshed by control-plane broadcasts). *)

val set_peer_resolver : t -> (int -> (Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.t) -> unit


val is_key_dirty : t -> vidx:int -> string -> bool
(** Is a write to the key still in flight (dirty mark set) through the
    given vnode? Used by the cluster's replication sanitizer. *)

val is_key_tainted : t -> vidx:int -> string -> bool
(** Is the key's local copy possibly ahead of the commit point (a chain
    write applied here but failed down-chain)? Tainted keys read through
    the tail; the cluster's replication sanitizer skips them. *)

val handle : t -> Messages.request -> Messages.response
(** The request dispatcher (exposed for tests). *)

val start : t -> unit
(** Start the engine and serve RPCs. *)

val crash : t -> unit
(** Fail-stop: the NIC goes silent; flash contents survive. *)

val recover_network : t -> unit
val is_up : t -> bool

(** {1 Gray-failure (fail-slow) injection} *)

val set_slow_factor : t -> float -> unit
(** Inflate the node's NIC-CPU compute path by the given factor (>= 1;
    1.0 heals). Request pull costs scale by the factor and every local
    engine submission charges the extra (factor - 1) × service time on
    the shared net-CPU pool, so slowness convoys co-located requests the
    way a genuinely degraded wimpy core does. The node keeps answering
    heartbeats — slow, never dead. *)

val restart : t -> unit
(** Crash-restart recovery (§3.8.2): wipe the volatile protocol state
    (dirty marks, taint marks, the ABD tag gate, copy fences, forwarding
    rules), replay every partition's key log through [Store.recover] to
    rebuild the DRAM segment tables, and bring the NIC back up. ABD tags
    live inside the logged values, so the replay restores them for free.
    Blocks for the log-replay I/O, so run it from a spawned process. The
    control plane re-admits the node afterwards ({!Control.restart}). *)

(** {1 COPY support (§3.8.1)} *)

val begin_fence : t -> int -> unit
(** While a COPY streams into a vnode, writes arriving through chain
    forwarding are newer than any bulk-copied value; the fence records
    them so stale copies are dropped. *)

val end_fence : t -> int -> unit
(** Fences nest: a vnode can be the destination of several overlapping arc
    COPYs, so the confirmed-current marks are only dropped when the last
    fence lifts. *)

val add_copy_forward : t -> lo:int -> hi:int -> dst:Ring.vnode -> unit
(** While active, writes this node commits in (lo, hi] are also forwarded
    to [dst] (the joining/repairing vnode). *)

val remove_copy_forward : t -> lo:int -> hi:int -> dst:Ring.vnode -> unit
(** Detach exactly the [(lo, hi] -> dst] forward registered by the matching
    [add_copy_forward]; other arcs forwarding to the same destination stay
    attached. *)

val copy_range : t -> vidx:int -> lo:int -> hi:int -> dst:Ring.vnode -> int
(** Stream every live pair of [vidx] whose key falls in (lo, hi] to [dst]
    as a pipelined bulk transfer (COPY competes with foreground traffic —
    the Figure 9 dips). Returns pairs copied. *)

val write_mark : t -> int
(** The admission id the node's next write-path handler (chain [Write] or
    quorum [Tag_write]) will receive. Taken by the control plane right
    after a membership flip: every handler admitted before the mark may
    have routed on the pre-flip ring. *)

val drain_writes : t -> below:int -> unit
(** Block until no write-path handler admitted before [below] is still
    executing. [Control.join] drains every live node between the phase-3
    ring flip and the copy-forward detach: a pre-flip write commits on
    the old chain, and its commit reaches the newcomer only through the
    forwards. Returns immediately if nothing qualifying is in flight. *)

val scrub_pass : t -> Ring.vnode list
(** One background-scrub pass (data integrity): walk every materialised
    segment of every partition through the token engine, submitting Scrub
    commands only when the partition shows spare tokens (maintenance I/O
    yields to foreground traffic). Rotted values are read-repaired from
    the CRRS chain; returns the vnodes owning segment frames too rotted to
    rebuild locally, for escalation to the control plane's COPY path. *)

type stats = {
  n_nacks : int;
  n_shipped_reads : int;
  n_served_reads : int;
  n_write_applies : int;     (** replica writes applied locally *)
  n_read_repairs : int;      (** corrupt entries healed from a replica *)
  n_repair_failures : int;   (** repairs no replica could supply *)
  n_repair_serves : int;     (** [Repair_get] fetches served to peers *)
  n_scrubbed_segments : int;
  n_scrub_repairs : int;     (** rotted values the scrubber healed *)
}

val stats : t -> stats
