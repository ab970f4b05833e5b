(** LEED behind the {!Backend.S} service boundary.

    Wraps {!Cluster} (whole-cluster assembly) and {!Client} (the §3.5
    load-aware front-end library): a LEED system is a cluster built with
    {!Cluster.create}, [client] attaches a front-end with the cluster's
    client config, and [watts] is the paper's wall-power model.

    [counters] registers, summed over every JBOF, device and registered
    client: [blockdev.{reads,writes}], [blockdev.busy_s] (mean fully-busy
    seconds per device, a [Sum]); [client.{nacks,retries,hedges,
    hedge_wins,sheds,quorum_rounds,writebacks}], [client.backoff_s] (a
    [Sum], folded in client order); [control.{joins,leaves,
    failures_handled,slow_events}]; [node.{read_repairs,
    scrubbed_segments,scrub_repairs,write_applies}];
    [store.corrupt_reads]; [engine.sheds]; [netsim.{dropped,delayed,
    consumed}] (fabric fault rules and cache tap); and, only when the
    in-network cache is armed, [netcache.{hits,misses,invalidations,
    sprays}] plus the gauge [netcache.hot_groups]. *)

include Backend.S with type t = Cluster.t and type client = Client.t
