(* LEED front-end client library (§3.1.2, §3.5).

   Implements Algorithm 1's load-aware scheduling: every back-end response
   piggybacks the target partition's available token count; a request is
   issued only when the cached token balance covers its cost *or* no
   command is outstanding toward that partition (the Nagle-like probe rule,
   Alg. 1 L9-13). With CRRS (§3.7) reads go to the chain replica holding
   the most tokens instead of always the tail.

   Both mechanisms can be disabled for the ablation experiments (Fig. 7,
   Fig. 8).

   Gray-failure tolerance: the client tracks a latency histogram per
   destination node plus a global one. GETs are *hedged* — if the primary
   replica has not answered within the global hedge quantile, the same
   read is re-issued to the best alternate CRRS chain member and the first
   response wins (the loser's RPC slot self-cleans at the netsim layer; it
   never double-counts tokens, retries, or nacks because only the winning
   response is consumed). Per-destination adaptive timeouts replace the
   single static [rpc_timeout] as soon as enough samples exist, so a dead
   or wildly slow destination is abandoned in a few multiples of its usual
   tail instead of half a second. Ops can carry a deadline: the token
   engine sheds work still queued past it, and the resulting
   [Deadline_exceeded] NACK is terminal (retrying dead work is the
   metastable-failure pattern). [gray_defenses] switches hedging and the
   adaptive timeouts together (the cluster hands the same bit to the
   control plane's slow ladder); off, the client is the naive
   static-timeout baseline. *)

open Leed_sim
open Leed_netsim
module Rpc = Netsim.Rpc
module Trace = Leed_trace.Trace
module Histogram = Leed_stats.Histogram

exception Unavailable of string

type config = {
  flow_control : bool; (* §3.5 token gating *)
  crrs : bool;         (* §3.7 replica reads *)
  gray_defenses : bool; (* hedging, adaptive timeouts, the control plane's slow ladder *)
  op_deadline : float;  (* per-op SLO budget (s); 0. = no deadline *)
}

let default_config = { flow_control = true; crrs = true; gray_defenses = true; op_deadline = 0. }

let retry_limit = 8
let retry_backoff = 0.002     (* base sleep before retry 1 *)
let retry_backoff_cap = 0.1   (* ceiling of the exponential ramp *)
let retry_jitter = 0.25       (* relative spread: sleep ∈ base·2ⁿ·[1±j] *)
let hedge_quantile = 0.95     (* global latency quantile arming the hedge *)
let hedge_floor = 0.0002      (* minimum hedge delay (s) *)
let timeout_quantile = 0.99   (* per-destination quantile the timeout tracks *)
let timeout_mult = 6.0        (* timeout = mult × dest quantile *)
let rpc_timeout = 0.5         (* static timeout: cold start and ceiling (s) *)
let timeout_floor = 0.025     (* adaptive timeouts never drop below this (s) *)

(* Sample floors before the adaptive machinery arms: a hedge fired off
   three samples is noise, and a timeout fitted to a cold histogram is a
   false-positive machine. Below these counts the client behaves exactly
   like the naive static configuration. *)
let hedge_min_samples = 64
let timeout_min_samples = 32

type vstate = {
  mutable tokens : int; (* last piggybacked availability *)
  mutable outstanding : int;
  waiters : (unit -> unit) Queue.t;
}

(* Per-vnode flow-control state, keyed by the vnode's two ints. *)
module Vtbl = Hashtbl.Make (struct
  type t = Ring.vnode

  let equal (a : t) (b : t) = a.Ring.node = b.Ring.node && a.Ring.vidx = b.Ring.vidx
  let hash (v : t) = (v.Ring.node * 65599) + v.Ring.vidx
end)

module Itbl = Hashtbl.Make (Int)

type t = {
  config : config;
  r : int; (* replication factor: the length of every key's chain *)
  writer : int; (* unique writer id: the ABD tag tie-break *)
  repl : (module Replication.S);
  mutable renv : Replication.client_env option; (* built lazily over [t] *)
  track : Trace.track;
  rpc : (Messages.request, Messages.response) Rpc.t;
  ring : Ring.t;
  peer : int -> (Messages.request, Messages.response) Rpc.t;
  refresh : unit -> Ring.snapshot;
  vstates : vstate Vtbl.t;
  rng : Rng.t; (* per-client deterministic jitter source *)
  (* per-destination (physical node) response-time histograms feeding the
     adaptive timeouts; the global one feeds the hedge delay *)
  dest_hists : Histogram.t Itbl.t;
  global_hist : Histogram.t;
  (* control-plane pushed slow set: node -> escalation level
     (1 = deprioritize in CRRS spreading, 2 = drain entirely) *)
  slow : int Itbl.t;
  mutable nacks : int;
  mutable retries : int;
  mutable hedges : int;     (* hedge RPCs fired *)
  mutable hedge_wins : int; (* hedges that beat the primary *)
  mutable sheds : int;      (* ops abandoned on Deadline_exceeded *)
  mutable quorum_rounds : int; (* ABD quorum round-trips executed *)
  mutable writebacks : int;    (* ABD read-path repair write-backs *)
  mutable throttled : float; (* cumulative seconds spent waiting for tokens *)
  mutable backoff : float;   (* cumulative seconds slept in retry backoff *)
}

let create ~config ~rng ~track ~writer ~r ~proto ~fabric ~name ~peer ~refresh () =
  let rpc = Rpc.create fabric ~name ~gbps:100. in
  let t =
    {
      config;
      r;
      writer;
      repl = Abd.protocol proto;
      renv = None;
      track;
      rpc;
      ring = Ring.create ();
      peer;
      refresh;
      vstates = Vtbl.create 64;
      rng = Rng.split rng;
      dest_hists = Itbl.create 16;
      global_hist = Histogram.create ();
      slow = Itbl.create 4;
      nacks = 0;
      retries = 0;
      hedges = 0;
      hedge_wins = 0;
      sheds = 0;
      quorum_rounds = 0;
      writebacks = 0;
      throttled = 0.;
      backoff = 0.;
    }
  in
  Ring.install t.ring (refresh ());
  t

let ring t = t.ring
let pending_rpcs t = Rpc.pending_count t.rpc
let nacks t = t.nacks
let retries t = t.retries
let hedges t = t.hedges
let hedge_wins t = t.hedge_wins
let sheds t = t.sheds
let quorum_rounds t = t.quorum_rounds
let writebacks t = t.writebacks
let throttled_time t = t.throttled
let backoff_time t = t.backoff

(* --- gray-failure state --- *)

let dest_hist t node =
  match Itbl.find_opt t.dest_hists node with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Itbl.replace t.dest_hists node h;
      h

let record_latency t node dt =
  Histogram.record (dest_hist t node) dt;
  Histogram.record t.global_hist dt

(* Control-plane push: mark/clear a node's slow-escalation level.
   Level 1 deprioritizes the node in CRRS read spreading; level 2 drains
   it (reads avoid it whenever any alternative replica exists). *)
let set_slow t ~node ~level =
  if level <= 0 then Itbl.remove t.slow node else Itbl.replace t.slow node level

let slow_level t node = Option.value ~default:0 (Itbl.find_opt t.slow node)

(* Per-destination adaptive timeout: a few multiples of the destination's
   own tail quantile, clamped to [timeout_floor, rpc_timeout]. The floor
   keeps a healthy destination's occasional convoy from reading as death;
   the static [rpc_timeout] remains both the cold-start value and the
   upper bound. *)
let timeout_for t node =
  if not t.config.gray_defenses then rpc_timeout
  else
    let h = dest_hist t node in
    if Histogram.count h < timeout_min_samples then rpc_timeout
    else
      let q = Histogram.percentile h timeout_quantile in
      Float.min rpc_timeout (Float.max timeout_floor (timeout_mult *. q))

(* Hedge delay: the hedge-quantile of the *fastest warm destination* —
   the robust estimate of what a healthy replica's tail looks like. The
   global distribution would not do: a fail-slow destination keeps
   feeding its inflated latencies into it (closed-loop clients re-sample
   it constantly while its tokens stay high), the quantile ratchets
   toward the slow service time, and the hedge fires too late to protect
   the tail — the slow replica must never get to inflate its own hedge
   trigger. Taking the minimum across per-destination quantiles is
   outlier-proof for any minority of slow nodes, and order-independent,
   so the unsorted table walk below cannot leak iteration order. Floored
   so queue noise cannot arm microsecond hedges. None until warm. *)
let hedge_delay t =
  if (not t.config.gray_defenses) || Histogram.count t.global_hist < hedge_min_samples then None
  else
    let best = ref infinity in
    (* simlint: allow hashtbl-order — min over the fold is order-independent *)
    Itbl.iter
      (fun _node h ->
        if Histogram.count h >= hedge_min_samples then
          let q = Histogram.percentile h hedge_quantile in
          if q < !best then best := q)
      t.dest_hists;
    let q =
      if Float.is_finite !best then !best
      else Histogram.percentile t.global_hist hedge_quantile
    in
    Some (Float.max hedge_floor q)

let vstate t vn =
  match Vtbl.find_opt t.vstates vn with
  | Some v -> v
  | None ->
      let v = { tokens = 4; outstanding = 0; waiters = Queue.create () } in
      Vtbl.replace t.vstates vn v;
      v

let credit t vn tokens =
  let v = vstate t vn in
  v.tokens <- tokens;
  (* Wake token waiters so they re-evaluate the admission rule. *)
  while not (Queue.is_empty v.waiters) do
    (Queue.pop v.waiters) ()
  done

(* Algorithm 1's admission decision: block until the target offers enough
   tokens, or force one probe command when nothing is outstanding. *)
let admit t vn cost =
  if not t.config.flow_control then ()
  else begin
    let v = vstate t vn in
    let t0 = Sim.now () in
    let rec wait () =
      if v.tokens >= cost then v.tokens <- v.tokens - cost
      else if v.outstanding = 0 then v.tokens <- 0 (* Alg. 1 L12: probe *)
      else begin
        Sim.suspend (fun resume -> Queue.push (fun () -> resume ()) v.waiters);
        wait ()
      end
    in
    wait ();
    t.throttled <- t.throttled +. (Sim.now () -. t0)
  end

let release_waiters t vn =
  let v = vstate t vn in
  while not (Queue.is_empty v.waiters) do
    (Queue.pop v.waiters) ()
  done

let refresh_ring t =
  Ring.install t.ring (t.refresh ())

(* Issue one RPC toward a vnode with flow-control accounting. Every
   completed call — response or timeout — feeds the destination's latency
   histogram (a timeout records the elapsed timeout itself: a censored
   sample that keeps a silent destination's quantile honest). *)
let issue t (e : Ring.entry) req =
  let vn = e.Ring.owner in
  let cost =
    match req with
    | Messages.Write _ | Messages.Tag_write _ -> 3
    | Messages.Get _ | Messages.Tag_read _ -> 2
    | Messages.Copy_put _ | Messages.Repair_get _ | Messages.Ring_update _ | Messages.Ping -> 0
  in
  admit t vn cost;
  let v = vstate t vn in
  v.outstanding <- v.outstanding + 1;
  let start = Sim.now () in
  let resp =
    Rpc.call_timeout t.rpc ~dst:(t.peer vn.Ring.node) ~timeout:(timeout_for t vn.Ring.node) req
  in
  v.outstanding <- v.outstanding - 1;
  record_latency t vn.Ring.node (Sim.now () -. start);
  (match resp with
  | Some (Messages.Value { tokens; _ })
  | Some (Messages.Ok { tokens })
  | Some (Messages.Tagged { tokens; _ })
  | Some (Messages.Pong { tokens; _ }) ->
      credit t vn tokens
  | Some (Messages.Nack _) -> release_waiters t vn
  | None ->
      (* RPC timeout: the replica is likely dead. Zero its cached token
         balance so CRRS read targeting deprioritizes it until a live
         response re-credits it. *)
      (vstate t vn).tokens <- 0;
      release_waiters t vn);
  resp

(* Pick the GET target: with CRRS, the replica advertising the most
   tokens among those not marked slow by the control plane (a slow node
   is used only when every alternative is at least as slow); otherwise
   (classic chain replication) the tail. *)
let read_target t chain =
  match chain with
  | [] -> None
  | _ ->
      if t.config.crrs then begin
        (* Lexicographic: lowest slow level first, most tokens second. *)
        let better (sl, tok) (bsl, btok) = sl < bsl || (sl = bsl && tok > btok) in
        let best = ref None in
        List.iter
          (fun (e : Ring.entry) ->
            let score = (slow_level t e.Ring.owner.Ring.node, (vstate t e.Ring.owner).tokens) in
            match !best with
            | None -> best := Some (e, score)
            | Some (_, bs) -> if better score bs then best := Some (e, score))
          chain;
        Option.map fst !best
      end
      else (match List.rev chain with e :: _ -> Some e | [] -> None)

(* The hedge destination: best alternate chain member under the same
   ranking, excluding the primary's node. *)
let hedge_target t chain (primary : Ring.entry) =
  let alternates =
    List.filter (fun (e : Ring.entry) -> e.Ring.owner.Ring.node <> primary.Ring.owner.Ring.node) chain
  in
  read_target t alternates

(* Capped exponential backoff with deterministic per-client jitter: the
   nth retry sleeps min(cap, base·2ⁿ) scaled by a factor drawn uniformly
   from [1−j, 1+j] off the client's own Rng — retries from clients hit by
   the same failure de-synchronize instead of stampeding the repaired
   chain in lockstep, and every run with the same seed sleeps the same. *)
let backoff_delay t n =
  let exp = Float.min retry_backoff_cap (retry_backoff *. (2. ** float_of_int n)) in
  let j = retry_jitter in
  let scale = 1. -. j +. (2. *. j *. Rng.float t.rng) in
  exp *. scale

let rec with_retries t n f =
  if n > retry_limit then raise (Unavailable "retry limit exceeded")
  else
    match f () with
    | Some r -> r
    | None ->
        t.retries <- t.retries + 1;
        if Trace.on () then
          Trace.instant ~track:t.track ~cat:"client" "retry" ~args:[ ("attempt", Trace.Int n) ];
        let d = backoff_delay t n in
        t.backoff <- t.backoff +. d;
        Sim.delay d;
        refresh_ring t;
        with_retries t (n + 1) f

(* Wrap one client-visible operation in a span covering retries, token
   throttling, and the RPCs themselves — the top of a request's trace.
   The caller branches on [Trace.on] *before* building the body closure
   and the key argument, so a tracing-off run allocates nothing here per
   operation. *)
let op_span t name key f =
  Trace.span ~track:t.track ~cat:"client" name ~args:[ ("key", Trace.Str key) ] f

(* A per-op deadline is fixed once at operation start and spans every
   retry: the budget is the op's, not the attempt's. *)
let op_deadline_of t =
  if t.config.op_deadline > 0. then Sim.now () +. t.config.op_deadline else 0.

(* Client-side shedding: abandoning an already-dead op before re-issuing
   it is the other half of the engine's deadline shedding. *)
let check_deadline t ~key deadline =
  if deadline > 0. && Sim.past deadline then begin
    t.sheds <- t.sheds + 1;
    if Trace.on () then
      Trace.instant ~track:t.track ~cat:"client" "shed.deadline"
        ~args:[ ("key", Trace.Str key) ];
    raise (Unavailable "op deadline exceeded")
  end

(* The server shed the op (it sat queued past its deadline): terminal.
   Retrying work the engine just declared dead is how metastable queue
   collapse starts. *)
let on_deadline_nack t ~key =
  t.nacks <- t.nacks + 1;
  t.sheds <- t.sheds + 1;
  if Trace.on () then
    Trace.instant ~track:t.track ~cat:"client" "shed.nacked"
      ~args:[ ("key", Trace.Str key) ];
  raise (Unavailable "op deadline exceeded")

let issue_get t (e : Ring.entry) ~key ~deadline =
  let req =
    Messages.Get
      {
        vn = e.Ring.owner;
        key;
        shipped = false;
        deadline;
        version = Ring.version t.ring;
      }
  in
  issue t e req

(* Hedged GET (tail-at-scale): race the primary against its own latency
   budget; if the global hedge quantile elapses with no answer, re-issue
   the read to the best alternate CRRS chain member and take whichever
   response lands first. Each branch runs the full [issue] accounting for
   its own RPC exactly once, so the cancelled loser cannot double-count
   tokens, retries, or NVMe accesses — its late response (if any) is
   dropped by the RPC layer's pending-slot cleanup. *)
let hedged_get t chain (primary : Ring.entry) ~key ~deadline =
  match (hedge_delay t, hedge_target t chain primary) with
  | None, _ | _, None -> issue_get t primary ~key ~deadline
  | Some delay, Some alt ->
      let winner = Sim.Ivar.create () in
      Sim.spawn ~label:"client:get:primary" (fun () ->
          let r = issue_get t primary ~key ~deadline in
          ignore (Sim.Ivar.try_fill winner (false, r)));
      (match Sim.Ivar.read_timeout winner delay with
      | Some _ -> ()
      | None ->
          t.hedges <- t.hedges + 1;
          if Trace.on () then
            Trace.instant ~track:t.track ~cat:"client" "hedge.fire"
              ~args:
                [
                  ("key", Trace.Str key);
                  ("primary", Trace.Int primary.Ring.owner.Ring.node);
                  ("alt", Trace.Int alt.Ring.owner.Ring.node);
                  ("delay_us", Trace.Float (Sim.to_us delay));
                ];
          Sim.spawn ~label:"client:get:hedge" (fun () ->
              let r = issue_get t alt ~key ~deadline in
              ignore (Sim.Ivar.try_fill winner (true, r))));
      let from_hedge, resp = Sim.Ivar.read winner in
      if from_hedge then begin
        t.hedge_wins <- t.hedge_wins + 1;
        if Trace.on () then
          Trace.instant ~track:t.track ~cat:"client" "hedge.win"
            ~args:[ ("key", Trace.Str key); ("alt", Trace.Int alt.Ring.owner.Ring.node) ]
      end;
      resp

(* The seam: the client_env closure record handed to the protocol's
   read/write paths. Built once and cached — every field reads [t]'s
   live state through its closure. *)
let make_env t : Replication.client_env =
  let module R = Replication in
  {
    R.cl_writer = t.writer;
    cl_r = t.r;
    cl_ring = t.ring;
    cl_issue = (fun e req -> issue t e req);
    cl_read_target = (fun chain -> read_target t chain);
    cl_hedged_get = (fun chain e ~key ~deadline -> hedged_get t chain e ~key ~deadline);
    cl_fail_deadline = (fun ~key -> on_deadline_nack t ~key);
    cl_note =
      (function
      | R.C_nack -> t.nacks <- t.nacks + 1
      | R.C_quorum_round -> t.quorum_rounds <- t.quorum_rounds + 1
      | R.C_writeback -> t.writebacks <- t.writebacks + 1);
  }

let renv t =
  match t.renv with
  | Some e -> e
  | None ->
      let e = make_env t in
      t.renv <- Some e;
      e

let get_impl t key =
  let deadline = op_deadline_of t in
  let module P = (val t.repl : Replication.S) in
  with_retries t 0 (fun () ->
      check_deadline t ~key deadline;
      P.read (renv t) ~key ~deadline)

(* Keys are checked before any RPC: the on-flash headers hold a key's
   length in one byte. *)
let get t key =
  Codec.check_key ~fn:"Client.get" key;
  if not (Trace.on ()) then get_impl t key
  else op_span t "get" key (fun () -> get_impl t key)

let write_impl t key value =
  let deadline = op_deadline_of t in
  let module P = (val t.repl : Replication.S) in
  with_retries t 0 (fun () ->
      check_deadline t ~key deadline;
      P.write (renv t) ~key ~value ~deadline)

let write t op_name key value =
  if not (Trace.on ()) then write_impl t key value
  else op_span t op_name key (fun () -> write_impl t key value)

let put t key value =
  Codec.check_key ~fn:"Client.put" key;
  write t "put" key (Some value)

let del t key =
  Codec.check_key ~fn:"Client.del" key;
  write t "del" key None
