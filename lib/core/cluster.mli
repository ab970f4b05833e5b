(** Whole-cluster assembly (paper Figure 2-a): back-end SmartNIC JBOFs,
    the control-plane manager, and front-end clients on one switched
    fabric. The top-level entry point of the library. *)

type config = {
  nnodes : int;
  r : int;  (** replication factor of every vnode and of every client's chains *)
  proto : Replication.proto;
      (** replication protocol hosted on every vnode, spoken by every
          client the cluster creates, and followed by the control plane's
          membership COPYs (default [Crrs]) *)
  engine_config : Engine.config;
  client_config : Client.config;
      (** the config of every client the cluster creates; its
          [gray_defenses] bit also arms the control plane's slow-outlier
          ladder ({!Control.create}'s [slow_detection]) *)
  platform : Leed_platform.Platform.t;
  heartbeat_period : float;
      (** failure-detector probe period (§3.8.2); default 0.2 s. A node
          that misses 3 probes in a row is failed out. *)
  cache : Netcache.config;
      (** in-network hot-object cache (DESIGN.md §15); armed when its
          [mode] is [Ttl_lru], default [Netcache.default_config]
          (mode [Off]) *)
}

val default_config : config
(** 3 SmartNIC JBOFs, R = 3, CRRS and flow control enabled. *)

type t

val create : ?config:config -> unit -> t
(** Build and start the cluster: nodes bootstrapped with their vnodes
    RUNNING, heartbeat monitoring live. *)

val control : t -> Control.t

val config : t -> config
(** The configuration the cluster was built with. *)

val nodes : t -> Node.t list
(** Live nodes in arrival order (stored newest-first internally; this
    accessor restores creation order). *)

val clients : t -> Client.t list
(** Registered front-end clients in creation order. *)

val node : t -> int -> Node.t

val fabric :
  t -> (Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.wire Leed_netsim.Netsim.fabric

val cache : t -> Netcache.t option
(** The armed in-network cache, when the config's cache mode was
    [Ttl_lru] at creation; [None] otherwise. *)

val client : t -> Client.t
(** A new front-end client with its own NIC endpoint and ring watch,
    speaking the cluster's [r] and [proto] under its [client_config]. *)

val add_node : t -> Node.t * int
(** Grow the cluster through the full §3.8.1 join protocol
    (JOINING → COPY → RUNNING); returns the node and the number of
    key-value pairs it received. *)

val remove_node : t -> int -> int
(** Graceful departure (§3.8.1); returns the pairs copied to rebuild the
    affected chains. *)

val crash_node : t -> int -> unit
(** Fail-stop crash (§3.8.2): the NIC goes dark; the heartbeat monitor
    detects the failure and repairs the chains from surviving replicas. *)

val restart_node : t -> int -> int
(** Crash-restart recovery: replay the node's circular logs
    ({!Node.restart}) and re-admit it via {!Control.restart} — a fast
    revive if the failure detector never expelled it, a full §3.8.1
    rejoin (with COPY) otherwise. Blocks until the node is serving
    again — run from a spawned process. Returns pairs copied. *)

val total_objects : t -> int
(** Live objects summed over every store (R replicas each). *)

(** {1 Replication sanitizer}

    No-ops unless the {!Leed_sim.Invariant} sanitizer is enabled
    ([Sim.run ~checks:true] or [LEED_SANITIZE=1]). *)

val check_chain_order : t -> string -> unit
(** Structural chain-order check for one key against the authoritative
    ring: the replica chain must not repeat a physical node nor exceed R
    entries. Race-free; runs automatically (over deterministic probe keys)
    after cluster creation and every membership change. *)

val check_replica_agreement : t -> string -> unit
(** Read every replica of [key] directly through the engines and require
    identical committed values. Skips keys with writes in flight (dirty
    or tainted), but is only meaningful at quiescent points — call it
    explicitly (e.g. from tests after traffic drains). CRRS-only: under
    ABD a minority replica legitimately lags until the next read writes
    the winning tag back, so the check no-ops. *)
