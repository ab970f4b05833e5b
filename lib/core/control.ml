(* Control-plane manager (§3.1.2, §3.8): the etcd-backed service that owns
   the authoritative ring, monitors node health with heartbeats, and
   orchestrates membership changes with the COPY primitive.

   The etcd quorum itself is modeled as a reliable service: broadcasts to
   back-end nodes travel over the simulated network (Ring_update RPCs), so
   the inconsistent-view window the paper measures in Fig. 9 (NACK-induced
   degradation at the end of a join) emerges naturally; client watches are
   delivered with jitter. *)

open Leed_sim
open Leed_netsim
module Rpc = Netsim.Rpc
module Trace = Leed_trace.Trace

type node_state = {
  node : Node.t;
  mutable missed : int;
  mutable alive : bool;
  (* gray-failure telemetry: service time piggybacked on the last
     heartbeat reply, and the outlier-escalation bookkeeping *)
  mutable svc_us : float;
  mutable svc_fresh : bool; (* reported in the current probe round *)
  mutable slow_rounds : int; (* consecutive rounds scored over threshold *)
  mutable clean_rounds : int; (* consecutive rounds scored healthy *)
  mutable slow_stage : int; (* 0 healthy, 1 deprioritized, 2 drained, 3 fenced *)
}

type t = {
  ring : Ring.t; (* authoritative *)
  r : int;
  proto : Replication.proto; (* every node's; picks how COPY draws sources *)
  track : Trace.track;
  rpc : (Messages.request, Messages.response) Rpc.t; (* manager's probe endpoint *)
  nodes : (int, node_state) Hashtbl.t;
  directory : (int, Node.t) Hashtbl.t; (* every node ever registered; insert-only *)
  mutable clients : Client.t list; (* newest first *)
  heartbeat_period : float;
  slow_detection : bool;
  mutable started : bool;
  mutable joins : int;
  mutable leaves : int;
  mutable failures_handled : int;
  mutable slow_events : int; (* escalations + de-escalations pushed *)
  (* (time, node, stage) — stage 0 entries record de-escalations; newest
     first, reversed by the accessor *)
  mutable slow_log : (float * int * int) list;
}

let miss_limit = 3 (* consecutive missed probes before fail-out (§3.8.2) *)
let slow_threshold = 3.0 (* svc / median ratio that reads as slow *)
let slow_rounds_trigger = 3 (* consecutive slow rounds per ladder rung *)

let create ~r ~proto ~heartbeat_period ~slow_detection fabric =
  let rpc = Rpc.create fabric ~name:"control-plane" ~gbps:10. in
  {
    ring = Ring.create ();
    r;
    proto;
    track = Trace.new_track "control";
    rpc;
    nodes = Hashtbl.create 8;
    directory = Hashtbl.create 8;
    clients = [];
    heartbeat_period;
    slow_detection;
    started = false;
    joins = 0;
    leaves = 0;
    failures_handled = 0;
    slow_events = 0;
    slow_log = [];
  }

let ring t = t.ring
let r t = t.r
let snapshot t = Ring.snapshot t.ring
let register_client t c = t.clients <- c :: t.clients
let clients t = List.rev t.clients

let node t id = (Hashtbl.find t.nodes id).node

let fresh_node_state n =
  {
    node = n;
    missed = 0;
    alive = true;
    svc_us = 0.;
    svc_fresh = false;
    slow_rounds = 0;
    clean_rounds = 0;
    slow_stage = 0;
  }

(* simlint: allow hashtbl-order — bindings are sorted before use *)
let node_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort compare

(* Nodes resolve forwarding targets from (possibly stale) ring views; a
   peer may have been expelled between snapshot and call. Resolution is a
   name lookup, not a liveness check: it must keep working for expelled
   nodes — the RPC against the dead host then times out like any other. *)
let peer_resolver t id =
  match Hashtbl.find_opt t.nodes id with
  | Some ns -> Node.rpc ns.node
  | None -> Node.rpc (Hashtbl.find t.directory id)

(* Broadcast the ring: nodes over the network (real Ring_update RPCs),
   clients via their etcd watch (modeled as a jittered install). *)
let broadcast t =
  let snap = Ring.snapshot t.ring in
  if Trace.on () then
    Trace.instant ~track:t.track ~cat:"control" "ring.broadcast"
      ~args:[ ("version", Trace.Int snap.Ring.snap_version) ];
  (* Iterate in sorted node-id order: the spawn order here becomes event
     order on the heap, so it must not depend on hash-bucket layout. *)
  List.iter
    (fun id ->
      let ns = Hashtbl.find t.nodes id in
      if ns.alive then
        Sim.spawn (fun () ->
            ignore
              (Rpc.call_timeout t.rpc ~dst:(Node.rpc ns.node) ~timeout:0.5
                 (Messages.Ring_update snap))))
    (node_ids t);
  List.iteri
    (fun i c ->
      Sim.spawn (fun () ->
          Sim.delay (0.0005 *. float_of_int (1 + (i mod 4)));
          Ring.install (Client.ring c) snap))
    t.clients

(* Admission, shared by bootstrap and join: enter the node in the
   membership and the directory, and let it resolve its peers. *)
let admit t (n : Node.t) =
  Hashtbl.replace t.nodes (Node.id n) (fresh_node_state n);
  Hashtbl.replace t.directory (Node.id n) n;
  Node.set_peer_resolver n (peer_resolver t)

(* Register a node with its vnodes directly RUNNING — cluster bootstrap. *)
let register_bootstrap_node t (n : Node.t) =
  admit t n;
  for vidx = 0 to Engine.npartitions (Node.engine n) - 1 do
    let e = Ring.add t.ring { Ring.node = Node.id n; vidx } in
    e.Ring.vstate <- Ring.Running
  done;
  Ring.install (Node.ring n) (Ring.snapshot t.ring)

(* After all bootstrap nodes are registered: sync every view. *)
let finish_bootstrap t =
  List.iter
    (fun id -> Ring.install (Node.ring (node t id)) (Ring.snapshot t.ring))
    (node_ids t);
  broadcast t

(* --- COPY orchestration helpers --- *)

(* Stream one arc from a source vnode to a destination vnode, with
   concurrent writes forwarded and fenced (§3.8.1).

   When [detach] is given, the forward + fence stay ATTACHED after the
   bulk stream finishes and their teardown closures accumulate there
   instead. The join path needs this: between an arc's copy completing
   and the phase-3 ring flip, commits to that arc would otherwise be
   neither forwarded (forward removed) nor bulk-copied (stream done) —
   a window in which the rejoiner silently went stale. *)
let copy_arc ?detach t ~(src : Ring.entry) ~(dst : Ring.vnode) ~lo ~hi =
  match Hashtbl.find_opt t.nodes src.Ring.owner.Ring.node with
  | None -> 0
  | Some sns when not sns.alive -> 0
  | Some sns ->
      let since = Sim.now () in
      let dst_node = node t dst.Ring.node in
      Node.begin_fence dst_node dst.Ring.vidx;
      Node.add_copy_forward sns.node ~lo ~hi ~dst;
      let copied = Node.copy_range sns.node ~vidx:src.Ring.owner.Ring.vidx ~lo ~hi ~dst in
      let finish () =
        Node.remove_copy_forward sns.node ~lo ~hi ~dst;
        Node.end_fence dst_node dst.Ring.vidx
      in
      (match detach with None -> finish () | Some acc -> acc := finish :: !acc);
      if Trace.on () then
        Trace.complete ~track:t.track ~cat:"control"
          ~args:
            [
              ("src", Trace.Int src.Ring.owner.Ring.node);
              ("dst", Trace.Int dst.Ring.node);
              ("copied", Trace.Int copied);
            ]
          "copy.arc" ~since;
      copied

(* Stream an arc into [dst] from the candidate [sources]; the cluster's
   protocol decides how many of them the COPY draws from.

   CRRS: any single committed replica suffices — the tail (last source)
   always holds every committed write, so try each candidate in turn,
   tail first. If a source dies mid-stream its Copy_puts silently time
   out and the destination is left hollow — so a copy only counts as
   complete if its source is still alive when it returns; otherwise
   fall back to the next survivor.

   ABD: NO single replica is guaranteed complete — a write is durable on
   any majority, and each write's majority can be a different subset, so
   an arc copied from one source can silently miss acked writes (the
   newcomer then outvotes the holders on a later read quorum). Merge the
   streams of EVERY live source instead: the union of the survivors
   covers every acked write's majority (losing more is beyond the
   protocol's fault bound anyway), and [Abd.accept_copy]'s tag
   comparison makes the merge idempotent and order-free. Each source
   also carries a copy-forward while it streams (kept attached via
   [detach] on the join path), so writes committed mid-COPY reach the
   newcomer through [sv_on_commit] forwarding rather than racing the
   bulk stream. *)
let copy_arc_from_any ?detach t ~(sources : Ring.entry list) ~(dst : Ring.vnode) ~lo ~hi =
  match t.proto with
  | Replication.Abd ->
      List.fold_left
        (fun acc (src : Ring.entry) -> acc + copy_arc ?detach t ~src ~dst ~lo ~hi)
        0 sources
  | Replication.Crrs ->
      let rec go = function
        | [] -> 0
        | (src : Ring.entry) :: rest ->
            let copied = copy_arc ?detach t ~src ~dst ~lo ~hi in
            let src_alive =
              match Hashtbl.find_opt t.nodes src.Ring.owner.Ring.node with
              | Some ns -> ns.alive
              | None -> false
            in
            if src_alive then copied else copied + go rest
      in
      go (List.rev sources)

let owners chain = List.map (fun (m : Ring.entry) -> m.Ring.owner) chain

(* The one membership-COPY walk (§3.8.1-§3.8.2), shared by join, leave,
   failure repair and scrub escalation. It walks the entries of [ring], a
   frozen copy nobody mutates: its copies yield, and a membership change
   meanwhile must not pull an entry out from under [Ring.arc_of]. For
   each entry in ring order, the vnodes [dsts e] receive the entry's arc
   from [sources e]; both may read the live ring. Returns pairs copied. *)
let copy_arcs ?detach t ring ~dsts ~sources =
  List.fold_left
    (fun total (e : Ring.entry) ->
      match dsts e with
      | [] -> total
      | dsts ->
          let lo, hi = Ring.arc_of ring e in
          let sources = sources e in
          List.fold_left
            (fun total dst -> total + copy_arc_from_any ?detach t ~sources ~dst ~lo ~hi)
            total dsts)
    0 (Ring.entries ring)

(* --- scrub escalation (data integrity) --- *)

(* A scrub pass found a segment frame on [vn] too rotted to rebuild entry
   by entry: its item list is gone, so only an arc re-COPY can restore
   the range. Re-copy every arc [vn] serves from the other members of
   each chain (preferring the tail, which always holds committed data);
   the fence/forward machinery of [copy_arc] keeps this safe under
   concurrent writes. Returns pairs copied. *)
let recopy_vnode t (vn : Ring.vnode) =
  let chain (e : Ring.entry) = Ring.chain_at t.ring ~r:t.r e.Ring.point in
  copy_arcs t (Ring.copy t.ring)
    ~dsts:(fun e -> if List.mem vn (owners (chain e)) then [ vn ] else [])
    ~sources:(fun e -> List.filter (fun (m : Ring.entry) -> m.Ring.owner <> vn) (chain e))

(* --- node join (§3.8.1) --- *)

let join t (n : Node.t) =
  if Trace.on () then
    Trace.instant ~track:t.track ~cat:"control" "join" ~args:[ ("node", Trace.Int (Node.id n)) ];
  admit t n;
  Ring.install (Node.ring n) (Ring.snapshot t.ring);
  (* Phase 1: vnodes enter as JOINING (receive COPY traffic only). *)
  let new_vns =
    List.init
      (Engine.npartitions (Node.engine n))
      (fun vidx ->
        let e = Ring.add t.ring { Ring.node = Node.id n; vidx } in
        e.Ring.owner)
  in
  broadcast t;
  (* Phase 2: for every arc the newcomers will serve in the future ring,
     the arc's current tail COPYs the range over. *)
  let total_copied = ref 0 in
  (* Forwards and fences from every arc stay attached until after the
     phase-3 broadcast: a commit landing between an early arc's copy and
     the ring flip must still be forwarded to the newcomer. *)
  let detach = ref [] in
  let copy_pass () =
    let future = Ring.copy t.ring in
    List.iter (fun vn -> Ring.set_state future vn Ring.Running) new_vns;
    total_copied :=
      !total_copied
      + copy_arcs ~detach t future
          ~dsts:(fun e ->
            List.filter (fun vn -> List.mem vn new_vns)
              (owners (Ring.chain_at future ~r:t.r e.Ring.point)))
          ~sources:(fun e -> Ring.chain_at t.ring ~r:t.r e.Ring.point)
  in
  (* A concurrent membership change (another node expelled or joining
     while an arc streams) re-appoints chain tails, and commits then
     land at nodes that carry no forward for this join — the newcomer
     would flip to RUNNING missing them. Re-copy until a whole pass sees
     a stable ring: marked keys are skipped by the fence, so a re-pass
     streams only what the dead forwards missed, and the final pass
     leaves live forwards attached on the current tails. Bounded as a
     churn backstop; eight membership flips inside one join means the
     cluster has bigger problems than this copy. *)
  let stable = ref false in
  let passes = ref 0 in
  while (not !stable) && !passes < 8 do
    let v0 = Ring.version t.ring in
    copy_pass ();
    incr passes;
    stable := Ring.version t.ring = v0
  done;
  (* Phase 3: flip to RUNNING and broadcast; clients may now address it. *)
  List.iter (fun vn -> Ring.set_state t.ring vn Ring.Running) new_vns;
  broadcast t;
  (* The broadcast is asynchronous and foreground writes keep flowing
     while it travels, so two kinds of old-ring writes can still be in
     flight: those admitted before the flip, and those admitted at a node
     that has not yet installed the new snapshot. Either kind commits at
     the *old* tail — possibly after this point — and that commit reaches
     the newcomer only through the copy forwards. Before detaching,
     confirm the snapshot has landed everywhere (a synchronous
     Ring_update wave; installs are idempotent) and drain every write
     handler admitted before that confirmation. *)
  let snap = Ring.snapshot t.ring in
  let marks =
    List.filter_map
      (fun id ->
        let ns = Hashtbl.find t.nodes id in
        if not ns.alive then None
        else begin
          ignore
            (Rpc.call_timeout t.rpc ~dst:(Node.rpc ns.node) ~timeout:0.5
               (Messages.Ring_update snap));
          Some (ns.node, Node.write_mark ns.node)
        end)
      (node_ids t)
  in
  List.iter (fun (n, m) -> Node.drain_writes n ~below:m) marks;
  (* Only now do the sources stop forwarding and the newcomer's fences
     lift — all post-flip writes route through the new chains anyway. *)
  List.iter (fun finish -> finish ()) (List.rev !detach);
  t.joins <- t.joins + 1;
  !total_copied

(* --- node leave / failure repair (§3.8.1, §3.8.2) --- *)

(* Common tail: the leaver's vnodes no longer serve; every chain it was in
   gains one new member that must receive the range from a survivor of
   the old chain (the tail first, which always holds committed data). *)
let rebuild_chains_without t (old_ring : Ring.t) leaver_id =
  let old_chain (e : Ring.entry) = Ring.chain_at old_ring ~r:t.r e.Ring.point in
  let fresh (e : Ring.entry) =
    let old = owners (old_chain e) in
    if List.for_all (fun (vn : Ring.vnode) -> vn.Ring.node <> leaver_id) old then []
    else
      let now = owners (Ring.chain_at t.ring ~r:t.r e.Ring.point) in
      List.filter (fun vn -> not (List.mem vn old)) now
  in
  copy_arcs t old_ring ~dsts:fresh ~sources:(fun e ->
      List.filter (fun (m : Ring.entry) -> m.Ring.owner.Ring.node <> leaver_id) (old_chain e))

let leave t leaver_id =
  if Trace.on () then
    Trace.instant ~track:t.track ~cat:"control" "leave" ~args:[ ("node", Trace.Int leaver_id) ];
  let old_ring = Ring.copy t.ring in
  (* Mark LEAVING: clients stop addressing it immediately; replica count
     temporarily drops to R-1. *)
  List.iter
    (fun (e : Ring.entry) ->
      if e.Ring.owner.Ring.node = leaver_id then Ring.set_state t.ring e.Ring.owner Ring.Leaving)
    (Ring.entries t.ring);
  broadcast t;
  let copied = rebuild_chains_without t old_ring leaver_id in
  (* Permanently delete the vnodes. *)
  List.iter
    (fun (e : Ring.entry) ->
      if e.Ring.owner.Ring.node = leaver_id then Ring.remove t.ring e.Ring.owner)
    (Ring.entries old_ring);
  broadcast t;
  Hashtbl.remove t.nodes leaver_id;
  t.leaves <- t.leaves + 1;
  copied

let handle_failure t dead_id =
  if Trace.on () then
    Trace.instant ~track:t.track ~cat:"control" "failure" ~args:[ ("node", Trace.Int dead_id) ];
  (match Hashtbl.find_opt t.nodes dead_id with
  | Some ns -> ns.alive <- false
  | None -> ());
  t.failures_handled <- t.failures_handled + 1;
  ignore (leave t dead_id)

(* --- crash-restart (§3.8.2) --- *)

let restart t (n : Node.t) =
  let id = Node.id n in
  match Hashtbl.find_opt t.nodes id with
  | Some ns when ns.alive ->
      (* Fast revive: the failure detector never expelled the node — replay
         the log, clear its miss count, resync its ring view, keep serving.
         Its chains never lost a member, so no COPY is needed. *)
      Node.restart n;
      ns.missed <- 0;
      Ring.install (Node.ring n) (Ring.snapshot t.ring);
      0
  | _ ->
      (* The node was (or is being) failed out. Wait for the in-flight
         failure repair to finish deleting it from the membership, then
         rejoin from scratch: the §3.8.1 join COPY re-transfers everything
         written while it was gone. *)
      while Hashtbl.mem t.nodes id do
        Sim.delay 0.01
      done;
      Node.restart n;
      join t n

(* --- gray-failure detection & escalation ---

   The heartbeat replies piggyback each node's smoothed local service
   time ([Pong.svc_us]). After every probe round the manager scores each
   reporter against the round's *median* — a fail-slow node cannot drag
   the reference down unless a majority degrades, in which case nobody is
   an outlier and nothing escalates (correct: that is overload, not gray
   failure). Sustained outliers walk an escalation ladder:

     stage 1  deprioritize — clients demote the node in CRRS read
              spreading (reads prefer any other clean replica);
     stage 2  drain — clients avoid the node entirely whenever an
              alternative replica exists;
     stage 3  fence — the §3.8 failure machinery expels the node and
              re-copies its ranges from chain survivors, exactly as if
              the failure detector had tripped.

   Each rung requires [slow_rounds_trigger] more consecutive slow rounds
   than the previous one; the same count of consecutive healthy rounds
   walks stages 1-2 back down (a fenced node re-admits only through the
   §3.8.1 join path, like any failure). *)

let stage_name = function 1 -> "slow.deprioritize" | 2 -> "slow.drain" | _ -> "slow.fence"

let push_slow_level t id level =
  List.iter (fun c -> Client.set_slow c ~node:id ~level) t.clients

let escalate t ns id stage =
  ns.slow_stage <- stage;
  t.slow_events <- t.slow_events + 1;
  t.slow_log <- (Sim.now (), id, stage) :: t.slow_log;
  if Trace.on () then
    Trace.instant ~track:t.track ~cat:"control" (stage_name stage)
      ~args:[ ("node", Trace.Int id); ("svc_us", Trace.Float ns.svc_us) ];
  match stage with
  | 1 | 2 -> push_slow_level t id stage
  | _ ->
      (* Fence: reads already avoid it; expel and re-copy in background —
         the ladder's terminal rung reuses the crash-failure path. *)
      push_slow_level t id 2;
      Sim.spawn ~label:"control:slow-fence" (fun () -> handle_failure t id)

let de_escalate t ns id =
  ns.slow_stage <- 0;
  ns.slow_rounds <- 0;
  t.slow_events <- t.slow_events + 1;
  t.slow_log <- (Sim.now (), id, 0) :: t.slow_log;
  if Trace.on () then
    Trace.instant ~track:t.track ~cat:"control" "slow.clear" ~args:[ ("node", Trace.Int id) ];
  push_slow_level t id 0

let score_round t =
  let reporters =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.nodes id with
        | Some ns when ns.alive && ns.svc_fresh && ns.svc_us > 0. -> Some (id, ns)
        | _ -> None)
      (node_ids t)
  in
  (* A median over fewer than 3 reporters cannot call an outlier. *)
  if List.length reporters >= 3 then begin
    let sorted = List.sort compare (List.map (fun (_, ns) -> ns.svc_us) reporters) in
    let median = List.nth sorted (List.length sorted / 2) in
    if median > 0. then
      List.iter
        (fun (id, ns) ->
          let score = ns.svc_us /. median in
          if Trace.on () then
            Trace.counter ~track:t.track ~cat:"control" "slow.score"
              [ (Printf.sprintf "n%d" id, score) ];
          if score >= slow_threshold then begin
            ns.slow_rounds <- ns.slow_rounds + 1;
            ns.clean_rounds <- 0;
            if ns.slow_stage < 3 && ns.slow_rounds >= (ns.slow_stage + 1) * slow_rounds_trigger
            then escalate t ns id (ns.slow_stage + 1)
          end
          else begin
            ns.clean_rounds <- ns.clean_rounds + 1;
            if ns.clean_rounds >= slow_rounds_trigger then begin
              if ns.slow_stage > 0 && ns.slow_stage < 3 then de_escalate t ns id;
              ns.slow_rounds <- 0
            end
          end)
        reporters
  end

(* --- heartbeats (§3.8.2) --- *)

let probe_round t =
  (* Sorted node-id order: fork_join spawns in list order, which is event
     order — probe scheduling must not depend on hash-bucket layout. *)
  let since = Sim.now () in
  let checks =
    List.filter_map
      (fun id ->
        let ns = Hashtbl.find t.nodes id in
        ns.svc_fresh <- false;
        if not ns.alive then None
        else
          Some
            (fun () ->
              match
                Rpc.call_timeout t.rpc ~dst:(Node.rpc ns.node)
                  ~timeout:(t.heartbeat_period /. 2.) Messages.Ping
              with
              | Some resp ->
                  ns.missed <- 0;
                  (match resp with
                  | Messages.Pong { svc_us; _ } ->
                      ns.svc_us <- svc_us;
                      ns.svc_fresh <- true
                  | _ -> ())
              | None ->
                  ns.missed <- ns.missed + 1;
                  if ns.missed >= miss_limit then Sim.spawn (fun () -> handle_failure t id)))
      (node_ids t)
  in
  Sim.fork_join checks;
  if t.slow_detection then score_round t;
  if Trace.on () then
    Trace.complete ~track:t.track ~cat:"control"
      ~args:[ ("probed", Trace.Int (List.length checks)) ]
      "probe_round" ~since

let start t =
  if not t.started then begin
    t.started <- true;
    Sim.every ~period:t.heartbeat_period (fun () ->
        probe_round t;
        true)
  end

type stats = {
  n_joins : int;
  n_leaves : int;
  n_failures_handled : int;
  n_slow_events : int;
}

let stats t =
  {
    n_joins = t.joins;
    n_leaves = t.leaves;
    n_failures_handled = t.failures_handled;
    n_slow_events = t.slow_events;
  }

let slow_log t = List.rev t.slow_log

let slow_stage t id =
  match Hashtbl.find_opt t.nodes id with Some ns -> ns.slow_stage | None -> 0
