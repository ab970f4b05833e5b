(** Simulated RDMA-style network fabric.

    Endpoints on a fabric exchange typed messages through a ToR-switch
    model: a transfer holds the sender's NIC for size/bandwidth, crosses
    the switch (a fixed base latency standing in for per-message RDMA verb
    processing), then holds the receiver's NIC. Endpoints can be marked
    down, silently dropping traffic — how node failures are injected. *)

type 'p endpoint

and 'p envelope = {
  src : 'p endpoint;
  dst : 'p endpoint;
  size : int;
  payload : 'p;
  trace_id : int;  (** async trace-span id of the in-flight message; 0 when untraced *)
}

type 'p fabric

(** Link-level fault verdicts: what a fault rule may do to one message in
    flight. [Drop] loses it silently; [Delay d] adds [d] seconds of switch
    latency. *)
type verdict = Drop | Delay of float

(** Verdicts of the switch-resident message {e tap}: [Forward] lets the
    message continue to its addressed endpoint (through the fault rules);
    [Consume] ends its flight at the switch — the tap owner is then
    responsible for any further effect, typically an {!inject}ed reply. *)
type tap_verdict = Forward | Consume

val fabric : ?base_latency_us:float -> size:('p -> int) -> unit -> 'p fabric
(** A fabric whose switch adds [base_latency_us] (default 3 µs) to every
    flight. [size] is the fabric's one sizing rule: {!send}, {!inject}
    and every RPC request and reply charge NIC time and byte counters at
    [size payload] bytes. *)

val endpoint : 'p fabric -> name:string -> gbps:float -> 'p endpoint
val name : 'p endpoint -> string

val id : 'p endpoint -> int
(** Stable fabric-unique id (creation order) — the handle fault rules
    match endpoints on. *)

val add_fault : 'p fabric -> ('p endpoint -> 'p endpoint -> verdict option) -> int
(** Install a link fault rule, consulted once per message on the send
    path after the sender has paid its NIC occupancy ([None] = no
    opinion). Rules compose: any [Drop] wins, [Delay]s accumulate.
    Returns a rule id for {!remove_fault}. This is the injection point
    for partitions, lossy links, and latency jitter; endpoint
    {!set_down} stays the model for whole-NIC failures. *)

val remove_fault : 'p fabric -> int -> unit
(** Heal: remove a previously installed rule (unknown ids are ignored). *)

val set_tap : 'p fabric -> ('p envelope -> tap_verdict) -> unit
(** Install the fabric's switch-resident tap (at most one; a second call
    replaces the first). The tap sees every message that left a sender
    NIC, exactly once, {e before} the fault rules are consulted — it
    models logic living in the ToR switch itself (the in-network cache),
    whose handling of a message is not subject to loss on the link toward
    the addressed endpoint. Tap closures run in the sender's process and
    must not block; spawn anything slow. *)

val inject : 'p fabric -> src:'p endpoint -> dst:'p endpoint -> 'p -> unit
(** Switch-originated delivery: send a message minted at the switch (e.g.
    a cache serving a consumed request). Pays the base switch latency and
    the receiver's NIC occupancy, but no sender-side NIC time and no
    fault rules — the switch-to-receiver leg shares fate with the switch.
    Never blocks the caller; silently dropped if [dst] is down. *)

type fabric_stats = { dropped : int; delayed : int; consumed : int }

val fabric_stats : 'p fabric -> fabric_stats
(** Messages dropped / delayed by fault rules, and consumed by the tap,
    since fabric creation. *)

val is_up : 'p endpoint -> bool
val set_down : 'p endpoint -> unit
val set_up : 'p endpoint -> unit

val set_receiver : 'p endpoint -> ('p envelope -> unit) -> unit
(** Install the endpoint's one delivery callback, replacing the previous
    one. A new endpoint drops what it receives until this is called. *)

val send : 'p fabric -> src:'p endpoint -> dst:'p endpoint -> 'p -> unit
(** Fire-and-forget: blocks the caller for the sender-side NIC occupancy
    only; flight and receive proceed asynchronously. A message that dies
    in flight (fault rule, down endpoint) closes its trace span with
    [dropped: true]. *)

type stats = { msgs_out : int; bytes_out : int; msgs_in : int; bytes_in : int }

val stats : 'p endpoint -> stats

(** Request/response RPC with piggyback support. The response path models
    the paper's one-sided RDMA WRITE + IMM: the requester pre-allocates
    the completion slot, keyed by request id. *)
module Rpc : sig
  type ('q, 'r) wire = Req of int * 'q | Resp of int * 'r

  type ('q, 'r) t

  val create : ('q, 'r) wire fabric -> name:string -> gbps:float -> ('q, 'r) t
  (** A fresh endpoint that completes responses to its own calls; requests
      reaching it are dropped until it {!serve}s. *)

  val endpoint : ('q, 'r) t -> ('q, 'r) wire endpoint

  val serve : ('q, 'r) t -> ('q -> 'r) -> unit
  (** Answer requests with [handler] from now on. The handler runs on
      the fiber that delivered the request (one per arriving message),
      so it may still block on storage or downstream RPCs without
      holding up other requests. Every request is answered: the
      handler's result travels back as the response to the caller's
      request id. *)

  val call_timeout : ('q, 'r) t -> dst:('q, 'r) t -> timeout:float -> 'q -> 'r option
  (** Blocking call, sized by the fabric's rule. Responses are matched by
      request id, so calls from one endpoint may complete out of order.
      [None] on timeout (e.g. a dead destination); a late response is
      dropped. *)

  val set_down : ('q, 'r) t -> unit
  val set_up : ('q, 'r) t -> unit
  val is_up : ('q, 'r) t -> bool

  val pending_count : ('q, 'r) t -> int
  (** Number of outstanding calls (issued, no response yet) — sampled by
      the observability layer as the per-client outstanding-RPC gauge. *)
end
