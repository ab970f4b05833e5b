(* Simulated RDMA-style network fabric.

   Endpoints on a fabric exchange typed messages through a ToR switch
   model: a transfer holds the sender's NIC for size/bandwidth, crosses the
   switch (fixed base latency covering the RDMA verb processing the paper's
   stack pays per message), then holds the receiver's NIC. Endpoints can be
   marked down, silently dropping traffic — that is how node failures are
   injected for §3.8 experiments. *)

open Leed_sim
module Trace = Leed_trace.Trace

type 'p endpoint = {
  name : string;
  id : int;
  gbps : float;
  nic : Sim.Resource.t;
  trace : Trace.track; (* the owning fabric's trace row *)
  mutable receiver : 'p envelope -> unit;
  mutable up : bool;
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
  mutable recv_bytes : int;
}

and 'p envelope = {
  src : 'p endpoint;
  dst : 'p endpoint;
  size : int;
  payload : 'p;
  trace_id : int; (* async span id of the in-flight message; 0 when untraced *)
}

(* Link-level fault verdicts: a fault rule inspects (src, dst) once per
   message on the send path and may drop the message in flight or add
   switch latency. Rules are how the fault-injection subsystem models
   partitions, lossy links, and latency jitter without touching endpoint
   up/down state (which models whole-NIC failures). *)
type verdict = Drop | Delay of float

(* Switch-resident tap verdicts: [Forward] lets the message continue to
   its addressed endpoint (through the fault rules); [Consume] ends its
   flight at the switch — the tap owner is now responsible for any
   further effect (e.g. injecting a reply). *)
type tap_verdict = Forward | Consume

type 'p fabric = {
  base_latency : float;
  size : 'p -> int; (* the wire size of every message, in bytes *)
  trace : Trace.track;
  mutable next_id : int;
  mutable next_rule : int;
  (* evaluated in insertion order; any Drop wins, Delays accumulate *)
  mutable rules : (int * ('p endpoint -> 'p endpoint -> verdict option)) list;
  mutable dropped_msgs : int;
  mutable delayed_msgs : int;
  (* the switch-resident message tap (at most one per fabric): sees every
     message that left a sender NIC, before fault rules *)
  mutable tap : ('p envelope -> tap_verdict) option;
  mutable consumed_msgs : int;
}

let fabric ?(base_latency_us = 3.0) ~size () =
  {
    base_latency = Sim.us base_latency_us;
    size;
    trace = Trace.new_track "net";
    next_id = 0;
    next_rule = 0;
    rules = [];
    dropped_msgs = 0;
    delayed_msgs = 0;
    tap = None;
    consumed_msgs = 0;
  }

let endpoint fab ~name ~gbps =
  let id = fab.next_id in
  fab.next_id <- id + 1;
  {
    name;
    id;
    gbps;
    nic = Sim.Resource.create ~name:(name ^ ".nic") ~capacity:1 ();
    trace = fab.trace;
    receiver = ignore;
    up = true;
    sent_msgs = 0;
    sent_bytes = 0;
    recv_msgs = 0;
    recv_bytes = 0;
  }

let name ep = ep.name
let id ep = ep.id
let is_up ep = ep.up

(* --- link faults --- *)

let add_fault fab rule =
  let rid = fab.next_rule in
  fab.next_rule <- rid + 1;
  fab.rules <- fab.rules @ [ (rid, rule) ];
  rid

let remove_fault fab rid = fab.rules <- List.filter (fun (r, _) -> r <> rid) fab.rules

(* Fold every active rule over a message: Drop wins, Delays accumulate. *)
let judge fab ~src ~dst =
  if fab.rules = [] then Delay 0.
  else begin
    let dropped = ref false and extra = ref 0. in
    List.iter
      (fun (_, rule) ->
        match rule src dst with
        | Some Drop -> dropped := true
        | Some (Delay d) -> extra := !extra +. Float.max 0. d
        | None -> ())
      fab.rules;
    if !dropped then Drop else Delay !extra
  end

(* --- switch tap --- *)

let set_tap fab f = fab.tap <- Some f

type fabric_stats = { dropped : int; delayed : int; consumed : int }

let fabric_stats fab =
  { dropped = fab.dropped_msgs; delayed = fab.delayed_msgs; consumed = fab.consumed_msgs }

let set_down ep = ep.up <- false

let set_up ep = ep.up <- true

let set_receiver ep f = ep.receiver <- f

(* A message that dies in flight still closes its trace span. *)
let end_dropped track trace_id =
  if trace_id <> 0 then
    Trace.async_end ~track ~cat:"net" ~id:trace_id "msg" ~args:[ ("dropped", Trace.Bool true) ]

let deliver env =
  let ep = env.dst in
  if ep.up then begin
    ep.recv_msgs <- ep.recv_msgs + 1;
    ep.recv_bytes <- ep.recv_bytes + env.size;
    if env.trace_id <> 0 then
      Trace.async_end ~track:ep.trace ~cat:"net" ~id:env.trace_id "msg";
    ep.receiver env
  end
  else end_dropped ep.trace env.trace_id

let wire_time size gbps = float_of_int (size * 8) /. (gbps *. 1e9)

(* The receive side of every flight, once it has crossed the switch: a
   down destination loses the message, an up one holds its NIC for the
   wire time and then delivers. *)
let arrive env =
  let dst = env.dst in
  if dst.up then
    Sim.spawn ~label:dst.name (fun () ->
        Sim.Resource.with_ dst.nic (fun () -> Sim.delay (wire_time env.size dst.gbps));
        deliver env)
  else end_dropped dst.trace env.trace_id

(* Count a message out of [src] and open its in-flight span. *)
let depart fab ~src ~dst payload =
  let size = fab.size payload in
  src.sent_msgs <- src.sent_msgs + 1;
  src.sent_bytes <- src.sent_bytes + size;
  let trace_id = Trace.next_id () in
  if trace_id <> 0 then
    Trace.async_begin ~track:fab.trace ~cat:"net" ~id:trace_id "msg"
      ~args:[ ("src", Trace.Str src.name); ("dst", Trace.Str dst.name); ("size", Trace.Int size) ];
  { src; dst; size; payload; trace_id }

(* Fire-and-forget message send. Blocks the caller for the sender-side NIC
   occupancy only; the flight and receive side proceed asynchronously. *)
let send fab ~src ~dst payload =
  if src.up then begin
    (* The span opens before the sender pays NIC occupancy, so the viewer
       shows the full send-to-deliver extent of the message. *)
    let env = depart fab ~src ~dst payload in
    Sim.Resource.with_ src.nic (fun () -> Sim.delay (wire_time env.size src.gbps));
    (* The tap models switch-resident logic (in-network caching): it sees
       every message that left a sender NIC, exactly once, before the
       fault rules — switch-local handling is not subject to link loss
       between the switch and the addressed endpoint. Tap closures run in
       the sender's process and must not block; anything slow (a cache
       lookup service time) is spawned. *)
    match fab.tap with
    | Some tap when tap env = Consume ->
        fab.consumed_msgs <- fab.consumed_msgs + 1;
        if env.trace_id <> 0 then
          Trace.async_end ~track:fab.trace ~cat:"net" ~id:env.trace_id "msg"
            ~args:[ ("consumed", Trace.Bool true) ]
    | _ -> (
        (* Fault rules apply after the sender has paid its NIC occupancy:
           the packet left the NIC and was lost (or delayed) in the
           fabric, so sender-side timing is identical with and without an
           armed fault. *)
        match judge fab ~src ~dst with
        | Drop ->
            fab.dropped_msgs <- fab.dropped_msgs + 1;
            if env.trace_id <> 0 then
              Trace.instant ~track:fab.trace ~cat:"net" "drop"
                ~args:[ ("src", Trace.Str src.name); ("dst", Trace.Str dst.name) ];
            end_dropped fab.trace env.trace_id
        | Delay extra ->
            if extra > 0. then fab.delayed_msgs <- fab.delayed_msgs + 1;
            Sim.after (fab.base_latency +. extra) (fun () -> arrive env))
  end

(* Switch-originated delivery: a message minted at the switch itself (an
   in-network cache serving a consumed request). It pays the base switch
   latency and the receiver's NIC occupancy but no sender NIC time and no
   fault rules — the switch-to-receiver leg shares fate with the switch,
   not with whatever link a rule models. Never blocks the caller. *)
let inject fab ~src ~dst payload =
  let env = depart fab ~src ~dst payload in
  Sim.after fab.base_latency (fun () -> arrive env)

type stats = { msgs_out : int; bytes_out : int; msgs_in : int; bytes_in : int }

let stats ep =
  { msgs_out = ep.sent_msgs; bytes_out = ep.sent_bytes; msgs_in = ep.recv_msgs; bytes_in = ep.recv_bytes }

(* ------------------------------------------------------------------ *)
(* Request/response RPC with piggyback support, built on the fabric.

   The response path models the paper's one-sided RDMA WRITE with an IMM
   field: the requester pre-allocates the completion slot (here: an Ivar
   keyed by request id), so a response needs no handler logic at the
   requester. *)

module Rpc = struct
  module Itbl = Hashtbl.Make (Int)

  type ('q, 'r) wire = Req of int * 'q | Resp of int * 'r

  type ('q, 'r) t = {
    fab : ('q, 'r) wire fabric;
    ep : ('q, 'r) wire endpoint;
    pending : 'r Sim.Ivar.t Itbl.t; (* completion slots by request id *)
    mutable next_req : int;
  }

  (* A response fills its request's pre-allocated slot; a late one (the
     caller timed out and dropped the slot) is ignored. A slot leaves
     [pending] before it is filled, so none is filled twice. *)
  let complete t id r =
    match Itbl.find_opt t.pending id with
    | Some iv ->
        Itbl.remove t.pending id;
        Sim.Ivar.fill iv r
    | None -> ()

  (* Every endpoint completes responses from creation on; a request
     reaching one that does not {!serve} is dropped. *)
  let create fab ~name ~gbps =
    let t = { fab; ep = endpoint fab ~name ~gbps; pending = Itbl.create 64; next_req = 0 } in
    set_receiver t.ep (fun env ->
        match env.payload with Req _ -> () | Resp (id, r) -> complete t id r);
    t

  let endpoint t = t.ep

  (* Answer requests too. The handler runs on the fiber [arrive] spawned
     to deliver the request, so it may block on storage. *)
  let serve t handler =
    set_receiver t.ep (fun env ->
        match env.payload with
        | Req (id, q) -> send t.fab ~src:t.ep ~dst:env.src (Resp (id, handler q))
        | Resp (id, r) -> complete t id r)

  (* [None] on timeout (e.g. the destination died). The pending slot is
     dropped so a late response is ignored. *)
  let call_timeout t ~dst ~timeout q =
    let id = t.next_req in
    t.next_req <- id + 1;
    let iv = Sim.Ivar.create () in
    Itbl.replace t.pending id iv;
    send t.fab ~src:t.ep ~dst:dst.ep (Req (id, q));
    match Sim.Ivar.read_timeout iv timeout with
    | Some _ as r -> r
    | None ->
        Itbl.remove t.pending id;
        None

  let set_down t = set_down t.ep
  let set_up t = set_up t.ep
  let is_up t = is_up t.ep
  let pending_count t = Itbl.length t.pending
end
