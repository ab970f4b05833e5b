(** The replication seam: per-vnode replication protocols as
    first-class modules.

    A protocol implements {!S}: the client-side read/write paths, the
    server-side request handlers, the storage framing of values, and the
    COPY-acceptance rule. The host {!Node}/{!Client} never hard-codes a
    protocol; they build a {!server_env}/{!client_env} closure record
    over their internals, keep one {!Vstate} record per vnode, and
    dispatch through the module selected by {!proto} (see
    [Abd.protocol]). CRRS (LEED §3.7) is the first implementation; ABD
    quorum replication the second. *)

(** The selectable replication protocols. *)
type proto =
  | Crrs  (** LEED §3.7 chain replication with replica reads *)
  | Abd  (** multi-writer ABD quorum register (majority read/write) *)

val proto_to_string : proto -> string
(** ["crrs"] / ["abd"] — the [--proto] spelling. *)

val proto_of_string : string -> proto
(** Inverse of {!proto_to_string}; raises [Invalid_argument] on any
    other string. *)

val all_protos : proto list
(** Every protocol, in comparison-bench order. *)

val quorum : int -> int
(** [quorum n] is the majority size over [n] replicas, [n/2 + 1]. *)

(** Tagged-value framing: ABD's (logical timestamp, writer id) tags are
    encoded into the stored bytes themselves so they survive a
    crash-restart's log replay and ride COPY streams unchanged. *)
module Tag : sig
  type t = { ts : int; writer : int }

  val zero : t
  (** The tag of never-written (or pre-protocol raw) data. *)

  val pair : t -> int * int
  (** To the wire representation used in {!Messages}. *)

  val of_pair : int * int -> t
  (** From the wire representation. *)

  val compare : t -> t -> int
  (** Total order: by [ts], then by [writer] (the multi-writer
      tie-break). *)

  val header_len : int
  (** Frame header size in bytes. *)

  val frame : tag:t -> bytes option -> bytes
  (** [frame ~tag payload] builds the stored representation;
      [payload = None] builds a tagged tombstone (ABD DEL). Raises
      [Invalid_argument] when [tag] overflows the fixed-width header
      fields (ts beyond 12 digits, writer beyond 9) — a silent overflow
      would demote the value to tag-zero raw bytes on read. *)

  val unframe : bytes -> (t * bytes option) option
  (** [Some (tag, payload)] for a well-formed frame ([payload = None]
      for a tombstone); [None] for raw unframed bytes, which callers
      treat as tag-{!zero} data. *)
end

(** The volatile per-vnode protocol state a host keeps in DRAM: CRRS
    dirty and taint marks, the COPY fence, and the ABD tag gate. It dies
    with the power ({!reset} on crash-restart); nothing in it is needed
    to recover committed data. *)
module Vstate : sig
  type t

  val create : unit -> t
  (** Empty tables, no fence. *)

  val reset : t -> unit
  (** Wipe every table and lift the fence (crash-restart). *)

  (** {2 Dirty marks (CRRS §3.7)} *)

  val is_dirty : t -> string -> bool
  (** Is a write to the key in flight (uncommitted) through this vnode? *)

  val dirty_incr : t -> string -> unit
  (** A write to the key enters this vnode. *)

  val dirty_decr : t -> string -> unit
  (** Marks count: [n] increments need [n] decrements to clear. *)

  (** {2 Taint marks} *)

  val taint : t -> string -> unit
  (** Mark a partial write: applied locally but failed down-chain, so the
      local copy may be ahead of the commit point and must read through
      the tail until a write lands clean. *)

  val untaint : t -> string -> unit
  (** A write landed end to end: the chain agrees on the key again. *)

  val is_tainted : t -> string -> bool
  (** Must reads of the key go through the tail? *)

  (** {2 COPY fence (§3.8.1)} *)

  val fence_active : t -> bool
  (** Is a COPY streaming into this vnode? *)

  val begin_fence : t -> unit
  (** A COPY starts streaming into this vnode. *)

  val end_fence : t -> unit
  (** Fences nest: a vnode can be the destination of several overlapping
      arc COPYs, so the fence stays active, and the confirmed-current
      marks stay, until the last one ends. *)

  val fence_mark : t -> string -> unit
  (** Confirm the key current (a chain write or a forwarded copy landed):
      bulk-copied values for it are dropped from now on. *)

  val fence_holds : t -> string -> bool
  (** Has the key been confirmed current since the fence went up? *)

  (** {2 ABD write gate} *)

  val tag_get : t -> string -> Tag.t option
  (** The highest tag accepted for the key, cached in DRAM so accept
      decisions are atomic with respect to other handlers; lazily
      rebuilt from the framed store values after a restart. *)

  val tag_set : t -> string -> Tag.t -> unit
  (** Raise-only: a tag at or below the gate leaves it unchanged. *)

  val tag_rollback : t -> string -> tag:Tag.t -> prev:Tag.t option -> unit
  (** Undo a speculative {!tag_set} whose engine write failed: restore
      [prev] ([None] removes the key) iff the gate still equals [tag] —
      otherwise a concurrent higher writer owns it. *)
end

(** Server-side statistics events a protocol reports to its host. *)
type server_stat =
  | S_nack  (** request refused (stale view, failure, shed) *)
  | S_shipped_read  (** CRRS dirty read forwarded to the tail *)
  | S_served_read  (** read served from the local store *)
  | S_write_apply  (** replica write applied to the local engine *)

(** The host-node surface a server-side protocol runs against. Every
    function field is a closure over the hosting [Node]; protocol code
    performs no side effect that is not named here or in {!Vstate}. *)
type server_env = {
  sv_node : int;  (** hosting node id *)
  sv_r : int;  (** replication factor *)
  sv_ring : Ring.t;  (** the node's local ring view *)
  sv_track : Leed_trace.Trace.track;
  sv_vnode : vidx:int -> Vstate.t option;
      (** the vnode's protocol state; [None] when the node hosts no such
          vnode *)
  sv_submit : 'a. deadline:float -> vidx:int -> 'a Engine.cmd -> ('a, Engine.failure) result;
      (** foreground engine submission (deadline [0.] = none), typed by
          the command; routed through fail-slow inflation and
          service-time telemetry *)
  sv_tokens : vidx:int -> int;
      (** available token balance piggybacked on responses (§3.5) *)
  sv_call :
    dst:Ring.vnode -> timeout:float -> Messages.request -> Messages.response option;
      (** one bounded RPC to a peer vnode's node *)
  sv_on_commit : key:string -> value:bytes -> unit;
      (** tail commit hook (COPY forwarding of fresh writes) *)
  sv_repair : vidx:int -> key:string -> bytes option;
      (** integrity read-repair for a checksum-corrupt local entry *)
  sv_note : server_stat -> unit;
}

(** Client-side statistics events a protocol reports to its host. *)
type client_stat =
  | C_nack  (** an attempt was refused and will be retried *)
  | C_quorum_round  (** one quorum round-trip executed (ABD) *)
  | C_writeback  (** an ABD read needed a repair write-back round *)

(** The client-library surface a client-side protocol runs against. *)
type client_env = {
  cl_writer : int;  (** unique writer id (ABD tag tie-break) *)
  cl_r : int;
  cl_ring : Ring.t;
  cl_issue : Ring.entry -> Messages.request -> Messages.response option;
      (** one RPC with flow-control admission, adaptive timeout and
          latency accounting *)
  cl_read_target : Ring.entry list -> Ring.entry option;
      (** CRRS read spreading: best replica by (slow level, tokens) *)
  cl_hedged_get :
    Ring.entry list ->
    Ring.entry ->
    key:string ->
    deadline:float ->
    Messages.response option;
      (** hedged GET toward the chosen primary (first response wins) *)
  cl_fail_deadline : key:string -> unit;
      (** terminal deadline shed; raises [Client.Unavailable] *)
  cl_note : client_stat -> unit;
}

(** A replication protocol. *)
module type S = sig
  val proto : proto
  (** Which selector this module implements. *)

  val handle : server_env -> Messages.request -> Messages.response option
  (** Serve one protocol request; [None] means the request is not part
      of this protocol's wire vocabulary and the host node falls through
      to its generic handlers (COPY, repair, membership, heartbeat). *)

  val read : client_env -> key:string -> deadline:float -> bytes option option
  (** One client-side GET attempt. [Some v] is a completed read
      ([v = None]: key absent), [None] asks the caller to refresh its
      ring view, back off and retry. *)

  val write :
    client_env -> key:string -> value:bytes option -> deadline:float -> unit option
  (** One client-side PUT/DEL attempt ([value = None] deletes); [None]
      as in {!read}. *)

  val payload_of_stored : bytes -> bytes option
  (** Strip the protocol's storage framing off raw engine bytes:
      [Some payload] for live data, [None] for a tombstone. *)

  val accept_copy :
    server_env -> vidx:int -> Vstate.t -> key:string -> value:bytes -> fresh:bool -> bool
  (** Should an incoming COPY value overwrite the local one of the vnode
      [vidx], whose state is given? [fresh]
      flags a forwarded concurrent write (as opposed to a bulk-stream
      entry). CRRS consults the COPY fence — a fresh value marks it, a
      bulk value is dropped once the fence holds the key; ABD compares
      tags, which makes COPY idempotent and order-free. *)
end

(** {1 Shared server helpers} *)

val guard :
  server_env -> vn:Ring.vnode -> version:int -> (Vstate.t -> Messages.response) -> Messages.response
(** The request guard every protocol handler opens with: a request sent
    under another ring [version] than the node's, or aimed at a vnode the
    node does not host, is answered [Nack (Stale_view v)] (and noted as
    a NACK) so the client refreshes its view and retries; otherwise the
    handler runs on the vnode's state. *)

val nack_of_failure : Engine.failure -> Messages.nack_reason
(** The one engine-failure → NACK map: [Failed] and [Corrupt] answer
    [Not_serving], [Shed] answers [Deadline_exceeded], [Overloaded]
    answers [Overloaded]. *)

val local_get :
  server_env ->
  vidx:int ->
  key:string ->
  deadline:float ->
  (bytes option, Messages.nack_reason) result
(** One engine [Get] through [sv_submit]: [Ok None] when the key is
    absent. A checksum-corrupt entry is healed via [sv_repair] before
    answering ([Not_serving] when no replica can supply it); any other
    failure maps through {!nack_of_failure}. *)

module Crrs_protocol : S
(** LEED §3.7 chain replication, re-expressed against the seam: head-to
    -tail forwarding with dirty marks, replica reads, tail shipping,
    COPY fencing — plus taint marks that route
    reads of partially written keys through the tail, keeping the chain
    linearizable when a mid-chain hop fails after the head applied. *)
