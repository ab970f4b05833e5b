(** Wire messages between clients, LEED nodes, and the control plane.

    Responses piggyback the serving partition's available token count —
    the §3.5 flow-control signal the client scheduler feeds on. *)

type request =
  | Get of {
      vn : Ring.vnode;
      key : string;
      shipped : bool;
      deadline : float;
      version : int;
    }
      (** [shipped] marks a dirty read forwarded to the tail (§3.7);
          [deadline] is an absolute virtual-time SLO bound (0. = none):
          work still queued past it is shed by the token engine instead
          of served. [version] is the sender's ring view: a mismatched receiver
          nacks [Stale_view], so reads never land on an expelled replica
          that still believes it serves the key. *)
  | Write of {
      vn : Ring.vnode;
      key : string;
      value : bytes option;
      hop : int;
      version : int;
      deadline : float;
    }
      (** [value = None] is a DEL. [hop] validates the chain position
          against the receiver's ring view (§3.8.1). [deadline] as in
          [Get]. *)
  | Tag_read of {
      vn : Ring.vnode;
      key : string;
      want_value : bool;
      deadline : float;
      version : int;
    }
      (** ABD phase 1: fetch the replica's local (tag, value). GETs set
          [want_value]; PUTs only need the tag to mint a higher one. *)
  | Tag_write of {
      vn : Ring.vnode;
      key : string;
      value : bytes;
      tag : int * int;
      deadline : float;
      version : int;
    }
      (** ABD phase 2: store [value] under [tag] = (ts, writer) iff the
          tag beats the replica's local one. Used by both writes and the
          read-path write-back; [value] carries the protocol framing. *)
  | Copy_put of { vn : Ring.vnode; key : string; value : bytes; fresh : bool }
      (** COPY traffic into a JOINING/repairing vnode (§3.8). [fresh]
          distinguishes a forwarded concurrent write (newer than anything
          the bulk stream carries — it marks the destination's COPY
          fence) from a bulk-stream entry (dropped when the fence already
          holds the key, so a slow bulk copy can never clobber a write
          that committed during the COPY). *)
  | Repair_get of { vn : Ring.vnode; key : string }
      (** Read-repair fetch after a local checksum failure: the receiver
          serves strictly from its own store (never repairs recursively,
          so two rotted replicas cannot ping-pong). *)
  | Ring_update of Ring.snapshot
  | Ping

type nack_reason =
  | Stale_view of int  (** receiver's ring version: refresh and retry *)
  | Not_serving
  | Overloaded
  | Deadline_exceeded
      (** the op sat queued past its deadline and was shed (never served);
          retrying is pointless — the client surfaces the miss instead *)

type response =
  | Value of { value : bytes option; tokens : int }
  | Ok of { tokens : int }
  | Tagged of { value : bytes option; tag : int * int; tokens : int }
      (** ABD phase-1 reply: the replica's local tag, plus the stored
          (framed) value when the reader asked for it *)
  | Pong of { tokens : int; svc_us : float }
      (** heartbeat reply carrying the node's smoothed local service time
          (µs) — the gray-failure telemetry the control plane scores *)
  | Nack of nack_reason

val wire_size : (request, response) Leed_netsim.Netsim.Rpc.wire -> int
(** Modeled wire size in bytes (headers + payload) of a request or a
    response: the sizing rule of the LEED fabric ([Cluster.create]
    builds it with this), so every RPC and injected cache reply is priced
    here. *)
