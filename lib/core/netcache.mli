(** In-network hot-object caching and popularity-aware load balancing at
    the ToR switch (LETHE-style; DESIGN.md §15).

    Attached to a cluster's fabric through the netsim message tap, the
    cache classifies keys COLD / WARM / HOT from per-hash-group GET
    counters: COLD GETs pass through untouched, WARM GETs are looked up
    in a deterministic home instance, HOT GETs are sprayed round-robin
    over every instance. A hit is consumed at the switch and answered
    with an injected response that completes the client's pending RPC
    slot — clients cannot tell a cache hit from a backend reply.

    Consistency: write-class requests (Write / Tag_write / Copy_put)
    evict the key and bump a per-key epoch when the request crosses the
    switch and again when its ack crosses back; a GET response populates
    the cache only if the epoch is unchanged since the GET's request
    crossing and no write for the key is in flight. This keeps every
    client-observable history linearizable with the cache armed — the
    chaos harness checks exactly that. Under ABD the read path is a
    Tag_read quorum, which the cache deliberately never intercepts (a
    cached reply would stand in for a replica's phase-1 vote and void
    the quorum-intersection argument); the cache is then armed but
    serves nothing. *)

(** The wire type of a LEED cluster fabric, as the tap sees it. *)
type wire = (Messages.request, Messages.response) Leed_netsim.Netsim.Rpc.wire

(** Whether a cluster arms the cache: [Off] leaves the fabric untouched,
    [Ttl_lru] attaches the TTL+LRU cache described above. *)
type mode = Off | Ttl_lru

(** Cache knobs: instance count and per-instance object [capacity],
    entry [ttl] (seconds), classifier hash-[groups], counter [window]
    (seconds) and the four promote/demote hysteresis thresholds
    (observations per group-window; [*_up] promotes, falling below
    [*_down] demotes). Lookups take 1 us at 100 Gb/s, and an unanswered
    request record (a lost write ack) keeps its key uncacheable for
    5 s. *)
type config = {
  mode : mode;
  instances : int;
  capacity : int;
  ttl : float;
  groups : int;
  window : float;
  warm_up : int;
  warm_down : int;
  hot_up : int;
  hot_down : int;
}

val default_config : config
(** 2 instances x 64 objects, 0.5 s TTL, 64 groups over 50 ms windows
    (warm at 8/4, hot at 48/24 observations), 1 us lookups at 100 Gb/s —
    with [mode = Off]: arming is always an explicit choice. *)

val enabled : config -> config
(** The same knobs with [mode = Ttl_lru]. *)

(** The hotness classifier, exposed for direct unit testing of the
    promote/demote hysteresis. Windows rotate lazily on observation. *)
module Classifier : sig
  (** A hash group's serving class. *)
  type klass = Cold | Warm | Hot

  type t
  (** Classifier state: one counter and one class per hash group. *)

  val create :
    ?on_change:(group:int -> before:klass -> after:klass -> unit) ->
    groups:int ->
    window:float ->
    warm_up:int ->
    warm_down:int ->
    hot_up:int ->
    hot_down:int ->
    unit ->
    t
  (** A fresh classifier (all groups COLD); must be called inside a
      simulation run. [on_change] fires on every promotion/demotion. *)

  val observe : t -> int -> klass
  (** Count one GET for the group and return its current class (the
      count influences the class only at the next window rotation). *)

  val klass : t -> int -> klass
  (** The group's current class, without counting an observation. *)

  val promotes : t -> int
  (** Class transitions to a hotter class so far. *)

  val demotes : t -> int
  (** Class transitions to a colder class so far. *)

  val hot_groups : t -> int
  (** Number of groups currently classified HOT. *)
end

type t
(** An attached cache: instances, classifier, and the invalidation
    bookkeeping driving the fabric tap. *)

val attach : ?config:config -> wire Leed_netsim.Netsim.fabric -> t
(** Install the cache on a fabric (replacing any previous tap). The
    [config]'s [mode] is not consulted — calling [attach] is the arming
    decision; [Cluster.create] makes it from its own config. *)

(** Cumulative counters plus the current hot-group and resident-entry
    gauges. [sprays] counts HOT GETs round-robined over the instances;
    [invalidations] write-driven eviction events that removed at least
    one resident entry; [expirations] entries dropped at lookup past
    their TTL; [evictions] LRU capacity victims. *)
type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  sprays : int;
  populates : int;
  evictions : int;
  expirations : int;
  promotes : int;
  demotes : int;
  hot_groups : int;
  resident : int;
}

val stats : t -> stats
(** Counters and gauges as of now (resident counts TTL-expired entries
    not yet dropped by a lookup). *)

val resident : t -> int
(** Entries currently resident across all instances. *)

val digest : t -> string
(** Deterministic fingerprint of counters plus the sorted resident key
    set with per-entry LRU ticks: the eviction-determinism oracle — two
    same-seed runs must agree. *)
