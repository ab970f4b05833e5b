(* The replication seam: per-vnode replication protocols as first-class
   modules (ROADMAP item 3).

   LEED's CRRS chain (§3.7) was baked into [Node]/[Client]; this module
   extracts the protocol surface — write path, read path, repair hooks,
   copy/membership interaction — behind a [REPLICATION] module type so a
   cluster can select its protocol per configuration. CRRS is the first
   implementation (below); [Abd] is the second (an ABD-style multi-writer
   quorum register); future protocols (Hermes-style broadcast, witness
   replicas) drop in the same way.

   Protocol code never touches [Node]'s internals directly: the host node
   exposes its engine, fabric and ring view through the closure records
   [server_env]/[client_env], and its volatile per-vnode protocol state
   (dirty marks, taint marks, copy fences, tag gate) as one [Vstate]
   record per vnode, whose operations live here next to the protocols
   that rely on them. That keeps the dependency arrow pointing one way
   (Node/Client depend on protocols, not the other way around) and makes
   every side effect a protocol can perform explicit and mockable. *)

open Leed_sim
module Trace = Leed_trace.Trace

type proto = Crrs | Abd

let proto_to_string = function Crrs -> "crrs" | Abd -> "abd"

let proto_of_string = function
  | "crrs" -> Crrs
  | "abd" -> Abd
  | s -> invalid_arg (Printf.sprintf "Replication.proto_of_string: %S" s)

let all_protos = [ Crrs; Abd ]

(* Majority quorum size over [n] replicas. *)
let quorum n = (n / 2) + 1

module Tag = struct
  type t = { ts : int; writer : int }

  let zero = { ts = 0; writer = 0 }
  let pair { ts; writer } = (ts, writer)
  let of_pair (ts, writer) = { ts; writer }

  let compare a b =
    if a.ts <> b.ts then Stdlib.compare a.ts b.ts else Stdlib.compare a.writer b.writer

  (* Tags are framed INTO the stored value bytes — 'V'/'D' flag,
     12-digit logical timestamp, 9-digit writer id, '|', payload — so
     they survive a crash-restart's log replay and ride along COPY
     streams unchanged. 'D' frames are tagged tombstones: ABD deletes
     must keep their tag, so they store a frame with no payload instead
     of removing the key. *)
  let header_len = 24

  (* The fixed-width header fields bound the representable tags; a tag
     past either bound would silently shift the layout, [unframe] would
     answer [None], and the newest value would demote to tag-zero "raw
     bytes" and lose to everything — a silent data regression. Fail
     loudly at frame time instead. *)
  let max_ts = 999_999_999_999 (* %012d *)
  let max_writer = 999_999_999 (* %09d *)

  let frame ~tag payload =
    if tag.ts < 0 || tag.ts > max_ts || tag.writer < 0 || tag.writer > max_writer then
      invalid_arg
        (Printf.sprintf "Replication.Tag.frame: tag (ts=%d, writer=%d) overflows the header fields"
           tag.ts tag.writer);
    let flag, body =
      match payload with Some v -> ('V', v) | None -> ('D', Bytes.empty)
    in
    let hdr = Printf.sprintf "%c%012d.%09d|" flag tag.ts tag.writer in
    Bytes.cat (Bytes.of_string hdr) body

  (* [unframe b] is [Some (tag, payload)] for a well-formed frame
     ([payload = None] for a tombstone) and [None] for raw (pre-frame)
     bytes, which callers treat as tag-[zero] data. *)
  let unframe b =
    if Bytes.length b < header_len then None
    else
      let s = Bytes.sub_string b 0 header_len in
      let flag = s.[0] in
      if (flag <> 'V' && flag <> 'D') || s.[13] <> '.' || s.[23] <> '|' then None
      else
        match
          (int_of_string_opt (String.sub s 1 12), int_of_string_opt (String.sub s 14 9))
        with
        | Some ts, Some writer ->
            let payload =
              if flag = 'D' then None
              else Some (Bytes.sub b header_len (Bytes.length b - header_len))
            in
            Some ({ ts; writer }, payload)
        | _ -> None
end

(* --- the volatile per-vnode protocol state --- *)

module Vstate = struct
  module Stbl = Hashtbl.Make (String)

  type t = {
    (* count of in-flight (uncommitted) writes per key — the CRRS dirty
       map *)
    dirty : int Stbl.t;
    (* taint marks: a write that applied locally but failed somewhere
       down-chain leaves the local copy possibly ahead of the commit
       point; a tainted key's reads are shipped to the tail until a later
       write fully succeeds *)
    taint : unit Stbl.t;
    (* ABD write gate: highest tag accepted per key (a DRAM cache over
       the framed store values; rebuilt lazily after a restart) *)
    tags : Tag.t Stbl.t;
    (* keys confirmed current while a COPY streams in: bulk-copied values
       must not overwrite them (§3.8.1) *)
    copy_fence : unit Stbl.t;
    (* nesting depth: one vnode can be the destination of several
       overlapping arc COPYs (it sits in the chain of R consecutive ring
       points), so the fence lifts only when the *last* COPY detaches *)
    mutable fence_depth : int;
  }

  let create () =
    {
      dirty = Stbl.create 256;
      taint = Stbl.create 64;
      tags = Stbl.create 256;
      copy_fence = Stbl.create 64;
      fence_depth = 0;
    }

  let reset vs =
    Stbl.reset vs.dirty;
    Stbl.reset vs.taint;
    Stbl.reset vs.tags;
    Stbl.reset vs.copy_fence;
    vs.fence_depth <- 0

  let is_dirty vs key = Stbl.mem vs.dirty key

  let dirty_incr vs key =
    Stbl.replace vs.dirty key (1 + Option.value ~default:0 (Stbl.find_opt vs.dirty key))

  let dirty_decr vs key =
    match Stbl.find_opt vs.dirty key with
    | Some 1 | None -> Stbl.remove vs.dirty key
    | Some n -> Stbl.replace vs.dirty key (n - 1)

  let taint vs key = Stbl.replace vs.taint key ()
  let untaint vs key = Stbl.remove vs.taint key
  let is_tainted vs key = Stbl.mem vs.taint key
  let fence_active vs = vs.fence_depth > 0
  let begin_fence vs = vs.fence_depth <- vs.fence_depth + 1

  let end_fence vs =
    vs.fence_depth <- vs.fence_depth - 1;
    if vs.fence_depth <= 0 then begin
      vs.fence_depth <- 0;
      Stbl.reset vs.copy_fence
    end

  let fence_mark vs key = Stbl.replace vs.copy_fence key ()
  let fence_holds vs key = Stbl.mem vs.copy_fence key
  let tag_get vs key = Stbl.find_opt vs.tags key

  (* Monotonic: the gate only rises. A handler resuming from a yield may
     try to install the (older) tag it decided on before blocking;
     silently keeping the higher tag is what makes that safe. *)
  let tag_set vs key tag =
    match Stbl.find_opt vs.tags key with
    | Some cur when Tag.compare cur tag >= 0 -> ()
    | Some _ | None -> Stbl.replace vs.tags key tag

  (* Undo a speculative advance whose engine write failed: restore
     [prev] only if the gate still equals [tag] — if a concurrent
     higher-tagged writer has raised it since, the gate is theirs. *)
  let tag_rollback vs key ~tag ~prev =
    match Stbl.find_opt vs.tags key with
    | Some cur when Tag.compare cur tag = 0 -> (
        match prev with
        | Some p -> Stbl.replace vs.tags key p
        | None -> Stbl.remove vs.tags key)
    | Some _ | None -> ()
end

(* --- the host-node surface a server-side protocol runs against --- *)

type server_stat =
  | S_nack
  | S_shipped_read
  | S_served_read
  | S_write_apply

type server_env = {
  sv_node : int;
  sv_r : int;
  sv_ring : Ring.t;
  sv_track : Trace.track;
  (* the vnode's protocol state; [None] when the node hosts no such
     vnode *)
  sv_vnode : vidx:int -> Vstate.t option;
  (* foreground engine submission (deadline 0. = none); routes through
     the host's fail-slow inflation and service-time telemetry *)
  sv_submit : 'a. deadline:float -> vidx:int -> 'a Engine.cmd -> ('a, Engine.failure) result;
  sv_tokens : vidx:int -> int;
  (* one RPC to a peer vnode's node, bounded by [timeout] *)
  sv_call :
    dst:Ring.vnode -> timeout:float -> Messages.request -> Messages.response option;
  (* tail commit hook: COPY forwarding of freshly committed writes *)
  sv_on_commit : key:string -> value:bytes -> unit;
  (* integrity read-repair for a checksum-corrupt local entry *)
  sv_repair : vidx:int -> key:string -> bytes option;
  sv_note : server_stat -> unit;
}

(* --- the client-library surface a client-side protocol runs against --- *)

type client_stat = C_nack | C_quorum_round | C_writeback

type client_env = {
  cl_writer : int; (* unique writer id (ABD tag tie-break) *)
  cl_r : int;
  cl_ring : Ring.t;
  (* one RPC with flow-control admission, adaptive timeout and latency
     accounting *)
  cl_issue : Ring.entry -> Messages.request -> Messages.response option;
  (* CRRS read spreading: best replica by (slow level, tokens) *)
  cl_read_target : Ring.entry list -> Ring.entry option;
  (* hedged GET toward the chosen primary (first response wins) *)
  cl_hedged_get :
    Ring.entry list ->
    Ring.entry ->
    key:string ->
    deadline:float ->
    Messages.response option;
  (* terminal deadline shed: raises Client.Unavailable *)
  cl_fail_deadline : key:string -> unit;
  cl_note : client_stat -> unit;
}

module type S = sig
  val proto : proto

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
  (** Should an incoming COPY value overwrite the local one? [fresh]
      flags a forwarded concurrent write (as opposed to a bulk-stream
      entry). CRRS consults the COPY fence — a fresh value marks it, a
      bulk value is dropped once the fence holds the key; ABD compares
      tags, which makes COPY idempotent and order-free. *)
end

(* --- shared server helpers: the request guard, the engine-failure NACK
   map, and one local engine read with integrity repair --- *)

let nack_stale env =
  env.sv_note S_nack;
  Messages.Nack (Messages.Stale_view (Ring.version env.sv_ring))

(* §3.8.1: a request carries the sender's ring version; a receiver on a
   different view NACKs Stale_view so the client refreshes and retries.
   Chain-position validation alone misses membership changes that leave
   this key's chain intact but move others — the version check is the
   authoritative fence. *)
let guard env ~(vn : Ring.vnode) ~version serve =
  if version <> Ring.version env.sv_ring then nack_stale env
  else match env.sv_vnode ~vidx:vn.Ring.vidx with None -> nack_stale env | Some vs -> serve vs

let nack_of_failure : Engine.failure -> Messages.nack_reason = function
  | Engine.Failed | Engine.Corrupt -> Messages.Not_serving
  | Engine.Shed -> Messages.Deadline_exceeded
  | Engine.Overloaded -> Messages.Overloaded

let local_get env ~vidx ~key ~deadline =
  match env.sv_submit ~deadline ~vidx (Engine.Get key) with
  | Ok v -> Ok v
  | Error Engine.Corrupt -> (
      (* Never serve (or silently drop) a rotted entry: heal it from a
         replica and answer with the verified bytes, or NACK. *)
      match env.sv_repair ~vidx ~key with
      | Some v -> Ok (Some v)
      | None -> Error Messages.Not_serving)
  | Error f -> Error (nack_of_failure f)

(* ====================================================================
   CRRS: LEED §3.7 chain replication with replica reads.

   Writes enter at the chain head and propagate forward; every replica
   sets the key's dirty mark, applies the write, and forwards; the tail
   is the commitment point; acknowledgments flow backward clearing the
   marks (the blocking RPC return path *is* the backward ack). Reads are
   served by any replica whose dirty mark is clear; a dirty replica
   ships the read to the tail, which always holds the committed value.

   On top of the paper's protocol this implementation carries taint
   marks: a write that applied locally but failed down-chain leaves this
   replica possibly ahead of the commit point, and serving that value
   would let reads observe a never-acknowledged write out of order (the
   linearizability oracle in lib/fault catches exactly this). A tainted
   key reads through the tail until a later write lands end-to-end.
   ==================================================================== *)

module Crrs_impl = struct
  let proto = Crrs

  (* Validate that this node is position [hop] of the key's chain in the
     local ring view; returns the chain on success. *)
  let validate_chain env ~key ~hop ~(vn : Ring.vnode) =
    let chain = Ring.chain env.sv_ring ~r:env.sv_r key in
    match List.nth_opt chain hop with
    | Some e when e.Ring.owner = vn && vn.Ring.node = env.sv_node -> Some chain
    | _ -> None

  let handle_write env ~(vn : Ring.vnode) ~key ~value ~hop ~version ~deadline =
    guard env ~vn ~version (fun vs ->
        match validate_chain env ~key ~hop ~vn with
        | None -> nack_stale env
        | Some chain ->
            let vidx = vn.Ring.vidx in
            let is_tail = hop = List.length chain - 1 in
            Vstate.dirty_incr vs key;
            let ok = ref true in
            let deadline_hit = ref false in
            let apply () =
              let cmd =
                match value with Some v -> Engine.Put (key, v) | None -> Engine.Del key
              in
              match env.sv_submit ~deadline ~vidx cmd with
              | Ok () ->
                  (* Mark the COPY fence the moment the chain write lands:
                     from here on the local value is newer than anything
                     the bulk stream carries, whether or not this hop's
                     forward ultimately succeeds. *)
                  if Vstate.fence_active vs then Vstate.fence_mark vs key;
                  env.sv_note S_write_apply
              | Error Engine.Shed ->
                  ok := false;
                  deadline_hit := true
              | Error (Engine.Failed | Engine.Corrupt | Engine.Overloaded) -> ok := false
            in
            let forward () =
              if not is_tail then begin
                match List.nth_opt chain (hop + 1) with
                | None -> ok := false
                | Some next -> (
                    let req =
                      Messages.Write
                        {
                          vn = next.Ring.owner;
                          key;
                          value;
                          hop = hop + 1;
                          version = Ring.version env.sv_ring;
                          deadline;
                        }
                    in
                    match env.sv_call ~dst:next.Ring.owner ~timeout:0.5 req with
                    | Some (Messages.Ok _) -> ()
                    | Some (Messages.Nack Messages.Deadline_exceeded) ->
                        ok := false;
                        deadline_hit := true
                    | _ -> ok := false)
              end
            in
            (* Apply locally and propagate down-chain concurrently; the
               reply (backward ack) leaves only when both are done. *)
            Sim.fork_join [ apply; forward ];
            Vstate.dirty_decr vs key;
            if !ok then begin
              (* A fully successful hop supersedes any earlier partial
                 write for the key: the chain below agrees again. *)
              Vstate.untaint vs key;
              if is_tail then (
                match value with
                | Some v -> env.sv_on_commit ~key ~value:v
                | None -> ());
              Messages.Ok { tokens = env.sv_tokens ~vidx }
            end
            else begin
              (* Either branch failing can leave this replica (or one
                 below) ahead of the commit point: taint the key so local
                 reads route through the tail until a write lands clean. *)
              Vstate.taint vs key;
              env.sv_note S_nack;
              if !deadline_hit then Messages.Nack Messages.Deadline_exceeded
              else Messages.Nack Messages.Not_serving
            end)

  let serve_local_read env ~vidx ~key ~deadline =
    env.sv_note S_served_read;
    match local_get env ~vidx ~key ~deadline with
    | Ok value -> Messages.Value { value; tokens = env.sv_tokens ~vidx }
    | Error reason ->
        env.sv_note S_nack;
        Messages.Nack reason

  let ship_to_tail env ~key ~deadline (te : Ring.entry) =
    env.sv_note S_shipped_read;
    if Trace.on () then
      Trace.instant ~track:env.sv_track ~cat:"node" "get.ship"
        ~args:[ ("key", Trace.Str key); ("tail", Trace.Int te.Ring.owner.Ring.node) ];
    let req =
      Messages.Get
        {
          vn = te.Ring.owner;
          key;
          shipped = true;
          deadline;
          version = Ring.version env.sv_ring;
        }
    in
    match env.sv_call ~dst:te.Ring.owner ~timeout:0.5 req with
    | Some r -> r
    | None -> Messages.Nack Messages.Not_serving

  let handle_get env ~(vn : Ring.vnode) ~key ~shipped ~deadline ~version =
    guard env ~vn ~version (fun vs ->
        let vidx = vn.Ring.vidx in
        let chain = Ring.chain env.sv_ring ~r:env.sv_r key in
        let tail_entry = match List.rev chain with e :: _ -> Some e | [] -> None in
        let am_tail = match tail_entry with Some e -> e.Ring.owner = vn | None -> false in
        (* §3.8.1: while a COPY streams into this vnode it may hold a
           pre-expulsion leftover for any key the fence has not confirmed
           current (a chain write or forwarded copy landed here since the
           fence went up). A replacement chain member enters serving duty
           as the new tail *before* its catch-up COPY completes, so this
           guard is what keeps the read path linearizable across repair:
           non-tail members route around it by shipping; the tail itself
           must refuse — its predecessor (the old tail) cannot be told
           apart from an uncommitted-write holder over the existing wire
           vocabulary, and a bounded client retry is cheaper than a wrong
           value. The fence lifts when the COPY drains. *)
        let fence_unready = Vstate.fence_active vs && not (Vstate.fence_holds vs key) in
        if fence_unready && (shipped || am_tail) then begin
          env.sv_note S_nack;
          Messages.Nack Messages.Not_serving
        end
        else if shipped || am_tail then serve_local_read env ~vidx ~key ~deadline
        else if
          (* Only the tail is authoritative for a key that is unconfirmed
             mid-COPY, tainted (a partial write may have put the local
             copy ahead of the commit point) or dirty (§3.7: a dirty
             replica ships the whole request to the tail). *)
          fence_unready || Vstate.is_tainted vs key || Vstate.is_dirty vs key
        then begin
          match tail_entry with
          | None -> Messages.Nack Messages.Not_serving
          | Some te -> ship_to_tail env ~key ~deadline te
        end
        else serve_local_read env ~vidx ~key ~deadline)

  let handle env (req : Messages.request) =
    match req with
    | Messages.Get { vn; key; shipped; deadline; version } ->
        Some (handle_get env ~vn ~key ~shipped ~deadline ~version)
    | Messages.Write { vn; key; value; hop; version; deadline } ->
        Some (handle_write env ~vn ~key ~value ~hop ~version ~deadline)
    | Messages.Tag_read _ | Messages.Tag_write _ ->
        (* quorum-protocol traffic aimed at a chain cluster *)
        Some (Messages.Nack Messages.Not_serving)
    | Messages.Copy_put _ | Messages.Repair_get _ | Messages.Ring_update _
    | Messages.Ping ->
        None

  (* --- client side --- *)

  let read env ~key ~deadline =
    let chain = Ring.chain env.cl_ring ~r:env.cl_r key in
    match env.cl_read_target chain with
    | None -> None
    | Some e -> (
        match env.cl_hedged_get chain e ~key ~deadline with
        | Some (Messages.Value { value; _ }) -> Some value
        | Some (Messages.Ok _ | Messages.Tagged _ | Messages.Pong _) -> Some None
        | Some (Messages.Nack Messages.Deadline_exceeded) ->
            env.cl_fail_deadline ~key;
            None
        | Some (Messages.Nack _) ->
            env.cl_note C_nack;
            None
        | None -> None)

  let write env ~key ~value ~deadline =
    match Ring.chain env.cl_ring ~r:env.cl_r key with
    | [] -> None
    | head :: _ -> (
        let req =
          Messages.Write
            {
              vn = head.Ring.owner;
              key;
              value;
              hop = 0;
              version = Ring.version env.cl_ring;
              deadline;
            }
        in
        match env.cl_issue head req with
        | Some (Messages.Ok _) -> Some ()
        | Some (Messages.Value _ | Messages.Tagged _ | Messages.Pong _) -> Some ()
        | Some (Messages.Nack Messages.Deadline_exceeded) ->
            env.cl_fail_deadline ~key;
            None
        | Some (Messages.Nack _) ->
            env.cl_note C_nack;
            None
        | None -> None)

  (* CRRS stores raw payload bytes — no framing to strip. *)
  let payload_of_stored v = Some v

  let accept_copy _env ~vidx:_ vs ~key ~value:_ ~fresh =
    (* §3.8.1 COPY fence. A forwarded concurrent write is newer than
       anything the bulk stream will ever carry: accept it and mark the
       fence so the bulk stream's (older) entry for the same key is
       dropped regardless of arrival order. A bulk entry is accepted
       only while the fence does not hold the key. *)
    if not (Vstate.fence_active vs) then true
    else if fresh then begin
      Vstate.fence_mark vs key;
      true
    end
    else not (Vstate.fence_holds vs key)
end

module Crrs_protocol : S = Crrs_impl
