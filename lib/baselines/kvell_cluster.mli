(** KVell over server JBOFs, clustered: KVell itself is single-node, so
    the paper's R=3 comparison deployment replicates on the client side —
    a write goes to the R nodes owning the key, a read to the primary.
    Each node runs the shared-nothing KVell store over its full SSD array
    with workers pinned to Xeon cores. The Server-KVell comparison system
    of the paper's §4.3/§4.4.

    Implements {!Leed_core.Backend.S}: client-observed errors and
    timeouts count as [nacks]; the client-side replication scheme has no
    retry loop, so [retries] stays zero. *)

type config = {
  r : int;
  nnodes : int;
  platform : Leed_platform.Platform.t;
  store_config : Kvell_store.config;
}

include Leed_core.Backend.S

val default_config : config

val create : ?config:config -> unit -> t
(** Build the cluster inside a simulation ([Sim.run]) context; the
    returned system is fully started. *)
