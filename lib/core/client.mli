(** LEED front-end client library (paper §3.1.2, §3.5).

    Implements Algorithm 1's load-aware scheduling: every back-end
    response piggybacks the target partition's available token count; a
    request is issued only when the cached balance covers its cost *or*
    nothing is outstanding toward that partition (the Nagle-like probe
    rule). With CRRS (§3.7) reads go to the chain replica advertising the
    most tokens instead of always the tail. Both mechanisms can be
    disabled for the Figure 7/8 ablations. *)

exception Unavailable of string
(** Raised when the retry budget is exhausted (e.g. the whole chain is
    unreachable). *)

type config = {
  flow_control : bool; (** §3.5 token gating *)
  crrs : bool;         (** §3.7 replica reads *)
  gray_defenses : bool;
      (** the gray-failure defenses, on or off together: hedged GETs
          ({!hedge_delay}; first response wins, the loser cannot
          double-count tokens, retries, or NVMe accesses), per-destination
          adaptive timeouts ({!timeout_for}) and, through [Cluster.create],
          the control plane's slow-outlier ladder. [false] is the naive
          static-timeout baseline. *)
  op_deadline : float;
      (** per-operation SLO budget in seconds (0. = none). The absolute
          deadline rides the wire; the token engine sheds work still
          queued past it and the client treats the resulting
          [Deadline_exceeded] NACK as terminal. *)
}

val default_config : config
(** Flow control, CRRS replica reads and the gray-failure defenses on, no
    deadline. Retries are fixed: at most 8, each sleeping
    min(0.1 s, 2 ms·2ⁿ) scaled uniformly from [0.75, 1.25] off the
    client's own deterministic {!Leed_sim.Rng}, de-synchronizing retry
    stampedes. *)

val rpc_timeout : float
(** The static RPC timeout (0.5 s): every RPC's timeout without the
    gray-failure defenses, and with them the cold-start value and upper
    clamp of the adaptive per-destination timeouts. *)

val timeout_floor : float
(** Adaptive timeouts never drop below this (0.025 s): an occasional
    convoy on a healthy node must not read as death. *)

type t

val create :
  config:config ->
  rng:Leed_sim.Rng.t ->
  track:Leed_trace.Trace.track ->
  writer:int ->
  r:int ->
  proto:Replication.proto ->
  fabric:(Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.wire Leed_netsim.Netsim.fabric ->
  name:string ->
  peer:(int -> (Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.t) ->
  refresh:(unit -> Ring.snapshot) ->
  unit ->
  t
(** [peer] resolves a physical node id to its RPC endpoint; [refresh]
    reads the control plane's current ring (the etcd watch). [rng] seeds
    the client's private backoff-jitter stream (split off, not shared).
    [track] is the trace row the client's operation spans land on (the
    cluster passes a shared [clients] row). [writer] is the client's
    unique writer id — the ABD tag tie-break; the cluster passes its
    client counter. [r]
    and [proto] are the cluster's replication factor and protocol: the
    client's chains and wire vocabulary must match what the vnodes
    host. *)

val ring : t -> Ring.t
(** The client's local ring view. *)

val pending_rpcs : t -> int
(** RPCs this client has in flight right now (the outstanding-request
    gauge sampled by {!Obs}). *)

val nacks : t -> int
(** Cumulative NACK responses received. *)

val retries : t -> int
(** Cumulative operation retries (timeouts and NACKs). *)

val hedges : t -> int
(** Cumulative hedge RPCs fired (second GETs racing a slow primary). *)

val hedge_wins : t -> int
(** Hedges whose response beat the primary's. *)

val sheds : t -> int
(** Ops abandoned on a deadline — client-side expiry before re-issue, or
    a terminal [Deadline_exceeded] NACK from the engine's shedder. *)

val quorum_rounds : t -> int
(** Cumulative ABD quorum round-trips executed (phase 1 + phase 2 +
    write-backs); 0 under CRRS. *)

val writebacks : t -> int
(** ABD reads that needed a repair write-back round before serving;
    0 under CRRS. *)

val set_slow : t -> node:int -> level:int -> unit
(** Control-plane push: set a node's slow-escalation level (0 clears,
    1 deprioritizes it in CRRS read spreading, 2 drains it — reads avoid
    it whenever an alternative replica exists). *)

val timeout_for : t -> int -> float
(** The RPC timeout the client would use toward the given node right now:
    {!rpc_timeout} without the gray-failure defenses or until the
    destination's histogram is warm, then 6 × its 0.99 quantile, clamped
    to [[timeout_floor, rpc_timeout]]. Exposed for tests. *)

val hedge_delay : t -> float option
(** The current hedge delay: the fastest warm destination's 0.95 latency
    quantile, floored at 0.2 ms. A GET whose primary replica has not
    answered within it is re-issued to the best alternate CRRS chain
    member. [None] without the gray-failure defenses or while the global
    histogram is cold. Exposed for tests. *)

val throttled_time : t -> float
(** Cumulative seconds spent blocked by Algorithm 1's token gate. *)

val backoff_time : t -> float
(** Cumulative seconds slept in retry backoff (exponential ramp). *)

val get : t -> string -> bytes option
(** Read from the best clean replica (or the tail without CRRS); a dirty
    replica ships the request to the tail transparently. [get], {!put}
    and {!del} raise [Invalid_argument], before sending anything, for a
    key longer than {!Codec.max_key_size} bytes. *)

val put : t -> string -> bytes -> unit
(** Write through the chain head; returns after the tail commits and the
    backward acknowledgments drain (per-key strong consistency). *)

val del : t -> string -> unit
