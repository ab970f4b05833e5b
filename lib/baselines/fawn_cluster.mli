(** FAWN-KV cluster: an array of wimpy embedded nodes (Raspberry Pi 3B+
    class) behind front-ends, with consistent hashing and *classic* chain
    replication — writes enter the head and propagate, reads are served by
    the tail only (no request shipping, no token flow control). The
    Embedded-FAWN comparison system of the paper's §4.3/§4.4.

    Implements {!Leed_core.Backend.S}: [create] builds and starts
    [nnodes] Pi-class back-ends (FAWN-DS each, buffered log writes,
    background flusher + compactor) on a 1 GbE fabric; reads are served
    by the key's chain tail, writes propagate head → tail. Client-observed
    errors and timeouts count as [nacks]; the front-ends never retry. *)

type config = {
  r : int;
  nnodes : int;
}

include Leed_core.Backend.S

val default_config : config

val create : ?config:config -> unit -> t
(** Build the cluster inside a simulation ([Sim.run]) context; the
    returned system is fully started. *)
