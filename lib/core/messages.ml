(* Wire messages between clients, LEED nodes, and the control plane.

   Responses piggyback the serving partition's available token count — the
   §3.5 flow-control signal the client scheduler feeds on. *)

type request =
  | Get of {
      vn : Ring.vnode;
      key : string;
      shipped : bool;
      deadline : float;
      version : int;
    }
      (* [shipped] marks a dirty read forwarded to the tail (§3.7);
         [deadline] is an absolute virtual-time SLO bound (0. = none):
         queued work past it is shed by the token engine. [version] is
         the sender's ring view: a receiver whose view differs nacks
         [Stale_view] so reads never land on an expelled replica that
         still thinks it serves the key. *)
  | Write of {
      vn : Ring.vnode;
      key : string;
      value : bytes option;
      hop : int;
      version : int;
      deadline : float;
    }
      (* [value] = None is a DEL. [hop] validates the chain position
         against the receiver's ring view (§3.8.1). [deadline] as in
         [Get]. *)
  | Tag_read of {
      vn : Ring.vnode;
      key : string;
      want_value : bool;
      deadline : float;
      version : int;
    }
      (* ABD phase 1: fetch the replica's local (tag, value). GETs set
         [want_value]; PUTs only need the tag to mint a higher one. *)
  | Tag_write of {
      vn : Ring.vnode;
      key : string;
      value : bytes;
      tag : int * int;
      deadline : float;
      version : int;
    }
      (* ABD phase 2: store [value] under [tag] = (ts, writer) iff the
         tag beats the replica's local one. Used by both writes and the
         read-path write-back. [value] carries the protocol framing
         (tag header + payload, or a tagged tombstone for DEL). *)
  | Copy_put of { vn : Ring.vnode; key : string; value : bytes; fresh : bool }
      (* COPY traffic into a JOINING/repairing vnode (§3.8); [fresh]
         marks a forwarded concurrent write, which beats (and fences out)
         any bulk-stream entry for the same key. *)
  | Repair_get of { vn : Ring.vnode; key : string }
      (* read-repair fetch after a local checksum failure: the receiver
         serves strictly from its own store (never repairs recursively, so
         two rotted replicas cannot ping-pong). *)
  | Ring_update of Ring.snapshot
  | Ping

type nack_reason =
  | Stale_view of int (* receiver's ring version: refresh and retry *)
  | Not_serving
  | Overloaded
  | Deadline_exceeded (* queued past its deadline and shed (never served) *)

type response =
  | Value of { value : bytes option; tokens : int }
  | Ok of { tokens : int }
  | Tagged of { value : bytes option; tag : int * int; tokens : int }
      (* ABD phase-1 reply: the replica's local tag, plus the stored
         (framed) value when the reader asked for it *)
  | Pong of { tokens : int; svc_us : float }
  | Nack of nack_reason

let request_size = function
  (* Get/Write carry the 8-byte absolute deadline on top of the base
     header; Get also carries the 8-byte ring version. *)
  | Get { key; _ } -> 80 + String.length key
  | Write { key; value; _ } ->
      72 + String.length key + (match value with Some v -> Bytes.length v | None -> 0)
  | Tag_read { key; _ } -> 80 + String.length key
  | Tag_write { key; value; _ } -> 96 + String.length key + Bytes.length value
  | Copy_put { key; value; _ } -> 64 + String.length key + Bytes.length value
  | Repair_get { key; _ } -> 48 + String.length key
  | Ring_update snap -> 64 + (48 * List.length snap.Ring.snap_entries)
  | Ping -> 64

let response_size = function
  | Value { value = Some v; _ } -> 64 + Bytes.length v
  | Tagged { value = Some v; _ } -> 80 + Bytes.length v
  | Tagged { value = None; _ } -> 80
  | Value { value = None; _ } | Ok _ | Pong _ | Nack _ -> 64

let wire_size : (request, response) Leed_netsim.Netsim.Rpc.wire -> int = function
  | Leed_netsim.Netsim.Rpc.Req (_, q) -> request_size q
  | Leed_netsim.Netsim.Rpc.Resp (_, r) -> response_size r
