(* A LEED back-end node: one SmartNIC JBOF running the I/O engine, its
   virtual nodes, and the host side of the selected replication protocol.

   The protocol itself (CRRS chain replication, ABD quorums, ...) lives
   behind the Replication seam: this module owns the engine, the fabric
   endpoint, the ring view, and one [Replication.Vstate] per vnode (dirty
   marks, taint marks, copy fences, the ABD tag gate), and hands the
   selected protocol a [Replication.server_env] of closures over them.
   Requests in the protocol's wire vocabulary dispatch through the seam;
   COPY traffic, integrity repair, membership updates and heartbeats are
   generic and handled here. *)

open Leed_sim
open Leed_netsim
module Rpc = Netsim.Rpc
open Leed_platform
module Trace = Leed_trace.Trace

module Itbl = Hashtbl.Make (Int)
module Vstate = Replication.Vstate

type vnode_state = {
  vn : Ring.vnode;
  pid : int; (* engine partition backing this vnode *)
  ps : Vstate.t; (* volatile protocol state *)
}

type t = {
  id : int;
  platform : Platform.t;
  engine : Engine.t;
  track : Trace.track;
  rpc : (Messages.request, Messages.response) Rpc.t;
  ring : Ring.t; (* local view, refreshed by control-plane broadcasts *)
  r : int;
  vnodes : vnode_state array; (* indexed by vidx, 0 .. npartitions - 1 *)
  net_cpu : Sim.Resource.t; (* the cores polling the RDMA RX queues (§3.4) *)
  mutable peer : int -> (Messages.request, Messages.response) Rpc.t;
  (* forwarding rules active during COPY: writes committed in (lo, hi]
     are also forwarded to [dst] *)
  mutable copy_forwards : (int * int * Ring.vnode) list;
  repl : (module Replication.S);
  mutable renv : Replication.server_env option; (* built lazily over [t] *)
  mutable nacks : int;
  mutable shipped_reads : int;
  mutable served_reads : int;
  mutable write_applies : int;     (* replica writes applied locally *)
  mutable read_repairs : int;      (* corrupt entries healed from a replica *)
  mutable repair_failures : int;   (* no replica could supply the value *)
  mutable repair_serves : int;     (* Repair_get fetches served to peers *)
  mutable scrubbed_segments : int; (* segments verified by the scrubber *)
  mutable scrub_repairs : int;     (* rotted values the scrubber healed *)
  (* gray-failure injection: >1 models a degraded NIC-CPU compute path
     (thermal throttling, firmware misbehaviour, a noisy co-tenant). The
     node still answers heartbeats — slow, never dead. *)
  mutable slow_factor : float;
  (* smoothed local service time (µs) of foreground engine submissions —
     the telemetry piggybacked on heartbeat replies for outlier scoring *)
  mutable svc_ewma_us : float;
  (* in-flight write-handler admission tracking: a write admitted under a
     pre-flip ring can commit at the old tail *after* a membership flip,
     and that commit only reaches a joining node through the copy
     forwards — so the control plane drains these before detaching
     (Control.join phase 3). Ids are per-node and monotonically
     increasing; [wr_active] holds the ids of handlers still executing. *)
  mutable wr_next : int;
  wr_active : unit Itbl.t;
  mutable wr_waiters : (int * unit Sim.Ivar.t) list;
}

(* Cycles to pull a request out of the RDMA stack and dispatch it. *)
let rx_cycles = 2500.

let create ?(proto = Replication.Crrs) ~id ~platform ~fabric
    ~engine_config ~r () =
  let track = Trace.new_track (Printf.sprintf "jbof%d" id) in
  let engine = Engine.create ~config:engine_config ~rng:(Rng.create (1000 + id)) ~track platform in
  let rpc = Rpc.create fabric ~name:(Printf.sprintf "jbof%d" id) ~gbps:platform.Platform.nic_gbps in
  let nparts = Engine.npartitions engine in
  let vnodes =
    Array.init nparts (fun vidx ->
        { vn = { Ring.node = id; vidx }; pid = vidx; ps = Vstate.create () })
  in
  {
    id;
    platform;
    engine;
    track;
    rpc;
    ring = Ring.create ();
    r;
    vnodes;
    net_cpu =
      Sim.Resource.create
        ~name:(Printf.sprintf "jbof%d.netcpu" id)
        ~capacity:(max 1 (platform.Platform.cpu.Platform.cores - platform.Platform.ssd_count - 1))
        ();
    peer = (fun _ -> failwith "Node.peer unset");
    copy_forwards = [];
    repl = Abd.protocol proto;
    renv = None;
    nacks = 0;
    shipped_reads = 0;
    served_reads = 0;
    write_applies = 0;
    read_repairs = 0;
    repair_failures = 0;
    repair_serves = 0;
    scrubbed_segments = 0;
    scrub_repairs = 0;
    slow_factor = 1.0;
    svc_ewma_us = 0.0;
    wr_next = 0;
    wr_active = Itbl.create 16;
    wr_waiters = [];
  }

let id t = t.id
let engine t = t.engine
let track t = t.track
let rpc t = t.rpc
let ring t = t.ring
let set_peer_resolver t f = t.peer <- f
let has_vnode t vidx = vidx >= 0 && vidx < Array.length t.vnodes
let vnode t vidx = if has_vnode t vidx then t.vnodes.(vidx) else raise Not_found
let vnode_opt t vidx = if has_vnode t vidx then Some t.vnodes.(vidx) else None

(* Exposed for the cluster's replication sanitizer: is a write to [key]
   still in flight through this vnode? *)
let is_key_dirty t ~vidx key =
  match vnode_opt t vidx with None -> false | Some vs -> Vstate.is_dirty vs.ps key

(* Exposed for the cluster's replication sanitizer: is a write to [key]
   orphaned (partially applied) at this vnode? *)
let is_key_tainted t ~vidx key =
  match vnode_opt t vidx with None -> false | Some vs -> Vstate.is_tainted vs.ps key

(* --- helpers --- *)

let charge_rx t =
  Platform.Cpu.execute_on t.platform t.net_cpu ~cycles:(rx_cycles *. t.slow_factor)

(* --- fail-slow injection --- *)

let set_slow_factor t f =
  if f < 1.0 then invalid_arg "Node.set_slow_factor: factor must be >= 1";
  t.slow_factor <- f


(* All foreground store work funnels through here: measure the engine
   service time for the heartbeat telemetry, and — under fail-slow
   injection — charge the extra (factor - 1) × elapsed as compute on the
   shared net-CPU pool. Routing the inflation through the bounded
   [net_cpu] resource is what makes a 10×-slow node convoy *other*
   requests on the same JBOF, the way a genuinely degraded wimpy core
   does, instead of just stretching each op in isolation. *)
let submit_local ?deadline t vs cmd =
  let start = Sim.now () in
  let outcome = Engine.submit ?deadline t.engine ~pid:vs.pid cmd in
  (if t.slow_factor > 1.0 then
     let extra = (t.slow_factor -. 1.0) *. (Sim.now () -. start) in
     let cycles = extra /. Platform.seconds_of_cycles t.platform 1.0 in
     if cycles > 0. then Platform.Cpu.execute_on t.platform t.net_cpu ~cycles);
  let sample_us = Sim.to_us (Sim.now () -. start) in
  t.svc_ewma_us <-
    (if t.svc_ewma_us <= 0. then sample_us
     else (0.9 *. t.svc_ewma_us) +. (0.1 *. sample_us));
  outcome

let tokens_for t vs = Engine.available_tokens (Engine.partition t.engine vs.pid)

(* --- COPY fencing (§3.8.1): while a COPY streams into a vnode, writes
   arriving through chain forwarding are newer than any bulk-copied value;
   the fence records them so stale copies are dropped. --- *)

let begin_fence t vidx = Vstate.begin_fence (vnode t vidx).ps
let end_fence t vidx = Vstate.end_fence (vnode t vidx).ps

(* --- COPY forwarding (§3.8.1) --- *)

let add_copy_forward t ~lo ~hi ~dst = t.copy_forwards <- (lo, hi, dst) :: t.copy_forwards

let remove_copy_forward t ~lo ~hi ~dst =
  (* exact-triple match: a vnode can be the destination of several
     overlapping arc COPYs at once, so detaching one arc must not tear
     down the forwards the others still rely on *)
  t.copy_forwards <-
    List.filter (fun (l, h, d) -> not (l = lo && h = hi && d = dst)) t.copy_forwards

let forward_copies t ~key ~value =
  List.iter
    (fun (lo, hi, dst) ->
      if Ring.key_in_arc ~lo ~hi key then begin
        let req = Messages.Copy_put { vn = dst; key; value; fresh = true } in
        match
          Rpc.call_timeout t.rpc ~dst:(t.peer dst.Ring.node) ~timeout:0.5 req
        with
        | Some _ | None -> ()
      end)
    t.copy_forwards

(* --- read-repair (data integrity): a checksum-corrupt local entry is
   healed transparently from the replica set. The [Repair_get] fetch is
   served strictly locally by the peer (no recursive repair, so two rotted
   replicas cannot ping-pong); the chain is tried tail first — under CRRS
   the tail always holds committed data, and under ABD any replica is as
   good as another. --- *)

let fetch_from_replicas t vs key =
  let chain = Ring.chain t.ring ~r:t.r key in
  let others = List.filter (fun (e : Ring.entry) -> e.Ring.owner <> vs.vn) chain in
  let rec go = function
    | [] -> None
    | (e : Ring.entry) :: rest -> (
        let req = Messages.Repair_get { vn = e.Ring.owner; key } in
        match
          Rpc.call_timeout t.rpc ~dst:(t.peer e.Ring.owner.Ring.node) ~timeout:0.5 req
        with
        | Some (Messages.Value { value = Some v; _ }) -> Some v
        | Some _ | None -> go rest)
  in
  go (List.rev others)

(* Fetch the committed value and rewrite it through the engine: the PUT
   rebuilds the key's segment with fresh checksums. Returns the healed
   value even when the local rewrite could not land (dead SSD, overload) —
   the fetched bytes are verified, so serving them is always safe. *)
let read_repair t vs ~key =
  if Trace.on () then
    Trace.instant ~track:t.track ~cat:"node" "read_repair" ~args:[ ("key", Trace.Str key) ];
  match fetch_from_replicas t vs key with
  | None ->
      t.repair_failures <- t.repair_failures + 1;
      None
  | Some v ->
      (match submit_local t vs (Engine.Put (key, v)) with
      | Ok () -> t.read_repairs <- t.read_repairs + 1
      | Error _ -> t.repair_failures <- t.repair_failures + 1);
      Some v

(* --- the seam: the server_env closure record handed to the protocol --- *)

let make_env t : Replication.server_env =
  let module R = Replication in
  (* built once, so a lookup allocates nothing *)
  let states = Array.map (fun vs -> Some vs.ps) t.vnodes in
  {
    R.sv_node = t.id;
    sv_r = t.r;
    sv_ring = t.ring;
    sv_track = t.track;
    sv_vnode = (fun ~vidx -> if has_vnode t vidx then states.(vidx) else None);
    sv_submit = (fun ~deadline ~vidx cmd -> submit_local ~deadline t (vnode t vidx) cmd);
    sv_tokens = (fun ~vidx -> tokens_for t (vnode t vidx));
    sv_call =
      (fun ~dst ~timeout req -> Rpc.call_timeout t.rpc ~dst:(t.peer dst.Ring.node) ~timeout req);
    sv_on_commit = (fun ~key ~value -> forward_copies t ~key ~value);
    sv_repair = (fun ~vidx ~key -> read_repair t (vnode t vidx) ~key);
    sv_note =
      (function
      | R.S_nack -> t.nacks <- t.nacks + 1
      | R.S_shipped_read -> t.shipped_reads <- t.shipped_reads + 1
      | R.S_served_read -> t.served_reads <- t.served_reads + 1
      | R.S_write_apply -> t.write_applies <- t.write_applies + 1);
  }

let renv t =
  match t.renv with
  | Some e -> e
  | None ->
      let e = make_env t in
      t.renv <- Some e;
      e

(* --- generic handlers (protocol-independent) --- *)

let handle_copy_put t ~(vn : Ring.vnode) ~key ~value ~fresh =
  match vnode_opt t vn.Ring.vidx with
  | None -> Messages.Nack Messages.Not_serving
  | Some vs ->
      let module P = (val t.repl : Replication.S) in
      if not (P.accept_copy (renv t) ~vidx:vn.Ring.vidx vs.ps ~key ~value ~fresh) then
        (* The local copy is already newer (a fenced chain write or a
           higher ABD tag): acknowledge without writing. *)
        Messages.Ok { tokens = tokens_for t vs }
      else begin
        match submit_local t vs (Engine.Put (key, value)) with
        | Ok () -> Messages.Ok { tokens = tokens_for t vs }
        | Error f -> Messages.Nack (Replication.nack_of_failure f)
      end

(* Read-repair fetch: serve strictly from the local store. A local
   checksum failure answers Not_serving — the asker moves on to the next
   chain member; no recursive repair. *)
let handle_repair_get t ~(vn : Ring.vnode) ~key =
  match vnode_opt t vn.Ring.vidx with
  | None -> Messages.Nack Messages.Not_serving
  | Some vs when Vstate.fence_active vs.ps && not (Vstate.fence_holds vs.ps key) -> (
      (* Mid-COPY and the key has not been confirmed current by a chain
         write: this replica may hold a pre-expulsion leftover, which
         must never become a repair source. *)
      Messages.Nack Messages.Not_serving)
  | Some vs -> (
      match submit_local t vs (Engine.Get key) with
      | Ok value ->
          if Option.is_some value then t.repair_serves <- t.repair_serves + 1;
          Messages.Value { value; tokens = tokens_for t vs }
      | Error f -> Messages.Nack (Replication.nack_of_failure f))

let dispatch t (req : Messages.request) : Messages.response =
  let module P = (val t.repl : Replication.S) in
  match P.handle (renv t) req with
  | Some resp -> resp
  | None -> (
      match req with
      | Messages.Copy_put { vn; key; value; fresh } -> handle_copy_put t ~vn ~key ~value ~fresh
      | Messages.Repair_get { vn; key } -> handle_repair_get t ~vn ~key
      | Messages.Ring_update snap ->
          Ring.install t.ring snap;
          Messages.Ok { tokens = 0 }
      | Messages.Ping ->
          (* Heartbeat replies piggyback the node's smoothed service time —
             the gray-failure telemetry the control plane scores
             (§3.8-adjacent escalation ladder). *)
          Messages.Pong { tokens = 0; svc_us = t.svc_ewma_us }
      | Messages.Get _ | Messages.Write _ | Messages.Tag_read _ | Messages.Tag_write _ ->
          (* A data request the selected protocol declined to handle. *)
          Messages.Nack Messages.Not_serving)

(* --- in-flight write tracking (membership-flip safety) ---

   Every write-path handler (chain [Write], quorum [Tag_write]) is
   bracketed with an admission id. [Control.join] flips the ring, then
   waits via [drain_writes] until every handler admitted before the flip
   has finished — only then is it safe to detach the copy forwards, since
   a pre-flip write commits on the *old* chain and its commit reaches the
   newcomer solely through the forwards. *)

let writes_active_below t bound =
  (* simlint: allow hashtbl-order — existence test, order-insensitive *)
  Itbl.fold (fun wid () acc -> acc || wid < bound) t.wr_active false

let write_mark t = t.wr_next

let drain_writes t ~below =
  if writes_active_below t below then begin
    let iv = Sim.Ivar.create () in
    t.wr_waiters <- (below, iv) :: t.wr_waiters;
    Sim.Ivar.read iv
  end

let tracked_dispatch t (req : Messages.request) : Messages.response =
  match req with
  | Messages.Write _ | Messages.Tag_write _ ->
      let wid = t.wr_next in
      t.wr_next <- wid + 1;
      Itbl.replace t.wr_active wid ();
      Fun.protect
        ~finally:(fun () ->
          Itbl.remove t.wr_active wid;
          match t.wr_waiters with
          | [] -> ()
          | waiters ->
              let ready, still =
                List.partition (fun (bound, _) -> not (writes_active_below t bound)) waiters
              in
              t.wr_waiters <- still;
              List.iter (fun (_, iv) -> Sim.Ivar.fill iv ()) ready)
        (fun () -> dispatch t req)
  | _ -> dispatch t req

let handle t (req : Messages.request) : Messages.response =
  charge_rx t;
  if not (Trace.on ()) then tracked_dispatch t req
  else begin
    (* One span per request on the node's row; the hop argument makes a
       CRRS chain write readable straight off the timeline (hop 0 on the
       head's row, hop 1 on the next node's, ...). The span name is a
       shared constant, and the argument list is built only here, on the
       traced branch. *)
    let name =
      match req with
      | Messages.Get _ -> "get"
      | Messages.Write _ -> "write"
      | Messages.Tag_read _ -> "tag_read"
      | Messages.Tag_write _ -> "tag_write"
      | Messages.Copy_put _ -> "copy_put"
      | Messages.Repair_get _ -> "repair_get"
      | Messages.Ring_update _ -> "ring_update"
      | Messages.Ping -> "ping"
    in
    let args =
      match req with
      | Messages.Get { key; shipped; _ } ->
          [ ("key", Trace.Str key); ("shipped", Trace.Bool shipped) ]
      | Messages.Write { key; hop; _ } -> [ ("key", Trace.Str key); ("hop", Trace.Int hop) ]
      | Messages.Tag_read { key; _ } -> [ ("key", Trace.Str key) ]
      | Messages.Tag_write { key; tag = (ts, _); _ } ->
          [ ("key", Trace.Str key); ("ts", Trace.Int ts) ]
      | Messages.Copy_put { key; _ } | Messages.Repair_get { key; _ } -> [ ("key", Trace.Str key) ]
      | Messages.Ring_update _ | Messages.Ping -> []
    in
    Trace.span ~track:t.track ~cat:"node" name ~args (fun () -> tracked_dispatch t req)
  end

let start t =
  Engine.start t.engine;
  Rpc.serve t.rpc (handle t)

(* Fail-stop crash: the NIC goes silent; engine state survives in DRAM/
   flash but nothing is served. *)
let crash t = Rpc.set_down t.rpc
let recover_network t = Rpc.set_up t.rpc
let is_up t = Rpc.is_up t.rpc

(* Crash-restart (§3.8.2): the DRAM side of the node — dirty marks, taint
   marks, the ABD tag gate, copy fences, forwarding rules — died with the
   power; the flash side (the circular logs) survived. Replay every
   partition's key log through [Store.recover] to rebuild the DRAM segment
   tables, wipe the volatile protocol state, and bring the NIC back up.
   ABD tags live inside the logged values, so the replay restores them for
   free; the tag gate refills lazily from the store. The control plane
   then re-admits the node via the §3.8.1 join protocol, which re-copies
   anything written while it was gone. Blocks for the log-replay I/O time,
   so callers run it from a spawned process. *)
let restart t =
  Array.iter (fun vs -> Vstate.reset vs.ps) t.vnodes;
  t.copy_forwards <- [];
  Array.iter (fun p -> Store.recover (Engine.store p)) (Engine.partitions t.engine);
  recover_network t

(* --- COPY source side (§3.8): stream every live pair of [vidx] whose key
   falls in (lo, hi] to the destination vnode. Returns pairs copied. *)

let copy_range t ~vidx ~lo ~hi ~(dst : Ring.vnode) =
  let vs = vnode t vidx in
  let st = Engine.store (Engine.partition t.engine vs.pid) in
  (* Bulk transfer: up to [window] Copy_puts in flight — COPY is meant to
     move data fast, at the cost of competing with foreground traffic
     (the Figure 9 dips). *)
  let window = Sim.Resource.create ~name:"copy.window" ~capacity:32 () in
  let copied = ref 0 and pending = ref 0 in
  let drained = Sim.Ivar.create () in
  let fold_done = ref false in
  Store.fold_live st ~init:() ~f:(fun () key value ->
      if Ring.key_in_arc ~lo ~hi key then begin
        Sim.Resource.acquire window;
        incr pending;
        Sim.spawn (fun () ->
            let req = Messages.Copy_put { vn = dst; key; value; fresh = false } in
            (match
               Rpc.call_timeout t.rpc ~dst:(t.peer dst.Ring.node) ~timeout:1.0 req
             with
            | Some (Messages.Ok _) -> incr copied
            | Some _ | None -> ());
            Sim.Resource.release window;
            decr pending;
            if !fold_done && !pending = 0 then Sim.Ivar.fill drained ())
      end);
  fold_done := true;
  if !pending > 0 then Sim.Ivar.read drained;
  !copied

(* --- background scrubbing (data integrity) ---

   One pass walks every materialised segment of every partition through
   the token engine: a Scrub command is only submitted once the partition
   shows spare tokens, so scrub reads yield to foreground traffic. Rotted
   values found are read-repaired key by key; a rotted segment frame
   cannot be rebuilt locally (its item list is gone), so the owning vnode
   is returned for escalation to the control plane's COPY path. *)

let scrub_pass t =
  let escalate = ref [] in
  (* vidx order: scrub order charges device time. *)
  t.vnodes
  |> Array.iter (fun vs ->
         let p = Engine.partition t.engine vs.pid in
         let st = Engine.store p in
         let bad_frame = ref false in
         for seg = 0 to Store.nsegments st - 1 do
           if Segtbl.is_materialised (Segtbl.entry (Store.segtbl st) seg) then begin
             let cost = Engine.token_cost (Engine.Scrub seg) in
             while is_up t && Engine.available_tokens p < cost do
               Sim.delay (Sim.us 500.)
             done;
             if is_up t then
               match Engine.submit t.engine ~pid:vs.pid (Engine.Scrub seg) with
               | Ok (Store.Scrub_clean _) -> t.scrubbed_segments <- t.scrubbed_segments + 1
               | Ok (Store.Scrub_repair keys) ->
                   t.scrubbed_segments <- t.scrubbed_segments + 1;
                   List.iter
                     (fun key ->
                       match read_repair t vs ~key with
                       | Some _ -> t.scrub_repairs <- t.scrub_repairs + 1
                       | None -> ())
                     keys
               | Ok Store.Scrub_bad_segment ->
                   t.scrubbed_segments <- t.scrubbed_segments + 1;
                   bad_frame := true
               | Error _ -> ()
           end
         done;
         if !bad_frame then escalate := vs.vn :: !escalate);
  List.rev !escalate

type stats = {
  n_nacks : int;
  n_shipped_reads : int;
  n_served_reads : int;
  n_write_applies : int;
  n_read_repairs : int;
  n_repair_failures : int;
  n_repair_serves : int;
  n_scrubbed_segments : int;
  n_scrub_repairs : int;
}

let stats t =
  {
    n_nacks = t.nacks;
    n_shipped_reads = t.shipped_reads;
    n_served_reads = t.served_reads;
    n_write_applies = t.write_applies;
    n_read_repairs = t.read_repairs;
    n_repair_failures = t.repair_failures;
    n_repair_serves = t.repair_serves;
    n_scrubbed_segments = t.scrubbed_segments;
    n_scrub_repairs = t.scrub_repairs;
  }
