(* Intra-JBOF I/O execution engine (§3.4) and write-imbalance data
   swapping (§3.6).

   The engine owns every SSD of a JBOF: a static core↔SSD mapping, and per
   partition an FCFS waiting queue plus an active set bounded by *tokens* —
   the SSD's serving capability translated from the measured per-IO latency
   (adaptively: the token capacity shrinks when the drive slows down under
   compaction or interference). A request is admitted when its token cost
   fits, runs the store command on the SSD's pinned core, and releases its
   tokens on completion.

   The engine owns no fiber. LEED's engine is a polling loop that admits a
   request as soon as its token cost fits; here [admit] is a plain call,
   made at the end of every [submit] once the engine has started and by
   every completing command. A command runs on its submitter's fiber: at
   once when its own [submit] admits it, or after the single resume of the
   [admit] that launches it when it had to queue. Its completion is
   [submit]'s return.

   Data swapping redirects an overloaded SSD's PUTs to the least-loaded
   co-located SSD's swap region: the command moves to the *other* SSD's
   queue and executes against the other SSD's swap log while the home
   store's segment table tracks the foreign location. Merge-back happens in
   the store's compactor; once no segment table references a swap region,
   the engine resets it. *)

open Leed_sim
open Leed_blockdev
open Leed_platform
module Trace = Leed_trace.Trace

type _ cmd =
  | Get : string -> bytes option cmd
  | Put : string * bytes -> unit cmd
  | Del : string -> unit cmd
  | Scrub : int -> Store.scrub_result cmd

type failure = Failed | Corrupt | Shed | Overloaded

let cmd_name : type a. a cmd -> string = function
  | Get _ -> "get"
  | Put _ -> "put"
  | Del _ -> "del"
  | Scrub _ -> "scrub"

(* Token cost of a command = its NVMe access count (§3.3). A scrub round
   reads the segment frame plus its values; 4 tokens prices it as a bulk
   maintenance read without starving foreground admissions. *)
let token_cost : type a. a cmd -> int = function
  | Get _ -> 2
  | Put _ -> 3
  | Del _ -> 2
  | Scrub _ -> 4

type config = {
  partitions_per_ssd : int;
  swap_enabled : bool;
  swap_threshold : int;   (* queued-token gap that triggers redirection *)
  token_min : int;
  token_max : int;
  waiting_cap : int;      (* shallow waiting queue bound (§3.4) *)
  store_config : Store.config;
}

let default_config =
  {
    partitions_per_ssd = 2;
    swap_enabled = true;
    swap_threshold = 24;
    token_min = 8;
    token_max = 96;
    waiting_cap = 256;
    store_config = Store.default_config;
  }

let klog_frac = 0.3 (* fraction of a partition given to the key log *)
let swap_frac = 0.1 (* fraction of each SSD reserved as swap region *)

(* What [admit] tells a queued command: run now, or give up. *)
type verdict = Run | Shed_expired

type pending = {
  name : string; (* [cmd_name] of the command, for its trace span *)
  tokens : int;
  part : partition;
  (* the foreign SSD's swap log when the command was swapped there *)
  target : Circular_log.t option;
  enqueued_at : float;
  deadline : float; (* absolute virtual-time SLO bound; 0. = none *)
  trace_id : int; (* async trace span from submit to completion; 0 untraced *)
  verdict : verdict Sim.Ivar.t; (* filled by the [admit] that launches or sheds it *)
}

and partition = {
  pid : int; (* partition index within the JBOF *)
  sched : ssd_sched;
  store : Store.t;
  waiting : pending Queue.t;
  mutable queued_tokens : int;
}

and ssd_sched = {
  dev_idx : int;
  dev : Blockdev.t;
  core : Sim.Resource.t;
  track : Trace.track;
  mutable partitions : partition array;
  swap_log : Circular_log.t;
  foreign : pending Queue.t; (* swapped-in commands from other SSDs *)
  mutable foreign_tokens : int;
  mutable active_tokens : int;
  mutable capacity : int;
  mutable ewma_access_us : float;
  mutable rr : int; (* round-robin cursor over partitions *)
  mutable executed : int;
  mutable swapped_out : int;
  mutable swapped_in : int;
  mutable deferred : int; (* commands that had to wait for tokens *)
  mutable denied : int; (* submissions answered [Error Overloaded] *)
  mutable shed : int; (* queued commands dropped past their deadline *)
  (* sanitizer ledger: independently accounts every token issued to a
     launched command and consumed at its completion *)
  tok_acct : Invariant.Tokens.t;
  (* swapped commands accepted but not yet completed on this SSD: the swap
     region must not be reset while any exist *)
  mutable swap_inflight : int;
}

type t = {
  platform : Platform.t;
  config : config;
  ssds : ssd_sched array;
  parts : partition array; (* all partitions, index = pid *)
  mutable started : bool; (* [start] admits and spawns the background processes once *)
}

let partitions t = t.parts
let partition t pid = t.parts.(pid)
let npartitions t = Array.length t.parts
let ssds t = t.ssds
let devices t = Array.map (fun s -> s.dev) t.ssds
let store p = p.store

(* --- construction --- *)

let base_capacity platform =
  (* Token pool ≈ 2× the drive's internal read parallelism: a GET holds its
     2 tokens across two *serial* accesses, so saturating the device's
     units needs twice as many tokens as units. *)
  2 * platform.Platform.ssd.Blockdev.read_concurrency

let create ?(config = default_config) ?(rng = Rng.create 11) ?track platform =
  let nssd = platform.Platform.ssd_count in
  let parent = match track with Some tr -> tr | None -> Trace.new_track "jbof" in
  let ssd_tracks = Array.init nssd (fun d -> Trace.new_track ~parent (Printf.sprintf "ssd%d" d)) in
  let dev_tracks =
    Array.init nssd (fun d -> Trace.new_track ~parent (Printf.sprintf "ssd%d.dev" d))
  in
  let devs =
    Array.init nssd (fun d ->
        Blockdev.create ~rng:(Rng.split rng) ~track:dev_tracks.(d) platform.Platform.ssd)
  in
  let cap_dev = platform.Platform.ssd.Blockdev.capacity_bytes in
  let swap_bytes = int_of_float (swap_frac *. float_of_int cap_dev) in
  let part_bytes = (cap_dev - swap_bytes) / config.partitions_per_ssd in
  let ssds =
    Array.init nssd (fun d ->
        {
          dev_idx = d;
          dev = devs.(d);
          core = Platform.Cpu.pinned_core platform d;
          track = ssd_tracks.(d);
          partitions = [||];
          swap_log =
            Circular_log.create
              ~name:(Printf.sprintf "ssd%d.swap" d)
              ~dev:devs.(d) ~dev_id:d
              ~base:(cap_dev - swap_bytes)
              ~size:swap_bytes;
          foreign = Queue.create ();
          foreign_tokens = 0;
          active_tokens = 0;
          capacity = max config.token_min (min config.token_max (base_capacity platform));
          ewma_access_us = platform.Platform.ssd.Blockdev.read_us;
          rr = 0;
          executed = 0;
          swapped_out = 0;
          swapped_in = 0;
          deferred = 0;
          denied = 0;
          shed = 0;
          swap_inflight = 0;
          tok_acct = Invariant.Tokens.create ~name:(Printf.sprintf "ssd%d.tokens" d);
        })
  in
  let mk_partition pid =
    let d = pid mod nssd in
    let slot = pid / nssd in
    let s = ssds.(d) in
    let base = slot * part_bytes in
    let ksize = int_of_float (klog_frac *. float_of_int part_bytes) in
    let klog =
      Circular_log.create ~name:(Printf.sprintf "p%d.klog" pid) ~dev:s.dev ~dev_id:d ~base ~size:ksize
    in
    let vlog =
      Circular_log.create
        ~name:(Printf.sprintf "p%d.vlog" pid)
        ~dev:s.dev ~dev_id:d ~base:(base + ksize) ~size:(part_bytes - ksize)
    in
    let st = Store.create ~config:config.store_config ~name:(Printf.sprintf "store%d" pid) ~klog ~vlog () in
    Store.set_resolver st (fun dev -> ssds.(dev).swap_log);
    Store.set_charge st (fun cycles -> Platform.Cpu.execute_on platform s.core ~cycles);
    { pid; sched = s; store = st; waiting = Queue.create (); queued_tokens = 0 }
  in
  let parts = Array.init (nssd * config.partitions_per_ssd) mk_partition in
  Array.iter
    (fun (s : ssd_sched) ->
      s.partitions <- Array.of_list (List.filter (fun p -> p.sched == s) (Array.to_list parts)))
    ssds;
  { platform; config; ssds; parts; started = false }

(* --- load signals --- *)

(* Tokens committed on an SSD: executing + queued, home and swapped-in. *)
let ssd_load (s : ssd_sched) =
  s.active_tokens + s.foreign_tokens
  + Array.fold_left (fun acc p -> acc + p.queued_tokens) 0 s.partitions

(* Advertised serving availability of a partition (§3.5): its SSD's spare
   token capacity split across the SSD's partitions. *)
let available_tokens p =
  let s = p.sched in
  let spare = s.capacity - ssd_load s in
  max 0 (spare / max 1 (Array.length s.partitions))

let waiting_depth p = Queue.length p.waiting

(* --- execution --- *)

let run_pending : type a. t -> ssd_sched -> pending -> a cmd -> (a, failure) result =
 fun t s pend cmd ->
  let exec_start = Sim.now () in
  let st = pend.part.store in
  let execute () : (a, failure) result =
    (* A dead SSD (injected brown-out) turns the command into a Failed
       completion instead of an exception for the submitter. *)
    try
      match cmd with
      | Get k -> Ok (Store.get st k)
      | Put (k, v) -> Ok (Store.put ?target:pend.target st k v)
      | Del k -> Ok (Store.del st k)
      | Scrub seg -> Ok (Store.scrub_segment st seg)
    with
    | Blockdev.Failed _ -> Error Failed
    (* Rot at rest: the store already counted it; complete the single
       command as Corrupt so the node can read-repair. *)
    | Store.Corrupt _ | Codec.Corrupt _ -> Error Corrupt
  in
  let result =
    if Trace.on () then
      Trace.span ~track:s.track ~cat:"engine"
        ("exec." ^ cmd_name cmd)
        ~args:[ ("pid", Trace.Int pend.part.pid); ("tokens", Trace.Int pend.tokens) ]
        execute
    else execute ()
  in
  s.executed <- s.executed + 1;
  (* Adapt the token capacity from the measured per-IO *service* latency
     (§3.4): a slowed drive (compaction, interference) shrinks the pool,
     recovery grows it back. Queueing delay is deliberately excluded to
     keep the feedback loop stable. *)
  let sample_us = Sim.to_us ((Sim.now () -. exec_start) /. float_of_int pend.tokens) in
  s.ewma_access_us <- (0.9 *. s.ewma_access_us) +. (0.1 *. sample_us);
  let base = t.platform.Platform.ssd.Blockdev.read_us in
  let scaled =
    int_of_float (float_of_int (base_capacity t.platform) *. (base /. max base s.ewma_access_us))
  in
  s.capacity <- max t.config.token_min (min t.config.token_max scaled);
  result

let trace_tokens (s : ssd_sched) kind pend =
  Trace.instant ~track:s.track ~cat:"engine" kind
    ~args:
      [
        ("tokens", Trace.Int pend.tokens);
        ("active", Trace.Int s.active_tokens);
        ("capacity", Trace.Int s.capacity);
      ];
  Trace.counter ~track:s.track ~cat:"engine" "tokens"
    [ ("active", float_of_int s.active_tokens); ("capacity", float_of_int s.capacity) ]

(* Hand a command its tokens. The submitter runs it on its own fiber:
   at once when this is its own [submit]'s [admit], else once the fill
   resumes it. *)
let launch (s : ssd_sched) (pend : pending) =
  s.active_tokens <- s.active_tokens + pend.tokens;
  if Sim.past pend.enqueued_at then s.deferred <- s.deferred + 1;
  if Trace.on () then trace_tokens s "tok.grant" pend;
  Invariant.Tokens.issue s.tok_acct ~time:(Sim.now ()) pend.tokens;
  Invariant.Tokens.check_balance s.tok_acct ~time:(Sim.now ())
    ~expect_outstanding:s.active_tokens;
  Sim.Ivar.fill pend.verdict Run

(* Deadline-aware load shedding: a queued command whose deadline already
   passed is completed as [Shed] without ever holding tokens or touching
   flash — serving it would burn NVMe accesses on a response the client
   has stopped waiting for, the metastable-collapse pattern. *)
let expired (pend : pending) = pend.deadline > 0. && Sim.past pend.deadline

let shed_pending (s : ssd_sched) (pend : pending) =
  s.shed <- s.shed + 1;
  if Trace.on () then
    Trace.instant ~track:s.track ~cat:"engine" "shed.expired"
      ~args:
        [
          ("pid", Trace.Int pend.part.pid);
          ("tokens", Trace.Int pend.tokens);
          ("late_us", Trace.Float (Sim.to_us (Sim.now () -. pend.deadline)));
        ];
  if pend.trace_id <> 0 then
    Trace.async_end ~track:s.track ~cat:"engine" ~id:pend.trace_id ("cmd." ^ pend.name);
  if pend.target <> None then s.swap_inflight <- s.swap_inflight - 1;
  Sim.Ivar.fill pend.verdict Shed_expired

(* Take a command's tokens off the queue it left: a swapped command
   waited in its SSD's foreign queue, any other in its partition's. *)
let dequeued (s : ssd_sched) pend =
  match pend.target with
  | Some _ -> s.foreign_tokens <- s.foreign_tokens - pend.tokens
  | None -> pend.part.queued_tokens <- pend.part.queued_tokens - pend.tokens

(* The head of one FCFS queue: shed it if expired, else launch it if its
   tokens fit. [true] when the head left the queue. *)
let admit_head (s : ssd_sched) queue =
  match Queue.peek_opt queue with
  | Some pend when expired pend ->
      ignore (Queue.pop queue);
      dequeued s pend;
      shed_pending s pend;
      true
  | Some pend when pend.tokens <= s.capacity - s.active_tokens ->
      ignore (Queue.pop queue);
      dequeued s pend;
      launch s pend;
      true
  | _ -> false

(* Admit everything that fits. Called at the end of every [submit] on a
   started engine and by every completing command, so tokens never sit
   free while a fitting command waits. *)
let admit (s : ssd_sched) =
  let progress = ref true in
  while !progress do
    (* Swapped-in commands take the "active queue" path directly (§3.6). *)
    progress := admit_head s s.foreign;
    (* Round-robin across this SSD's home partitions, FCFS within each. *)
    let n = Array.length s.partitions in
    for _ = 1 to n do
      let p = s.partitions.(s.rr) in
      s.rr <- (s.rr + 1) mod n;
      if admit_head s p.waiting then progress := true
    done
  done

(* A launched command is done, answered or raising: give its tokens back
   and admit what they now fit. *)
let finish (s : ssd_sched) (pend : pending) =
  s.active_tokens <- s.active_tokens - pend.tokens;
  if Trace.on () then trace_tokens s "tok.release" pend;
  Invariant.Tokens.consume s.tok_acct ~time:(Sim.now ()) pend.tokens;
  Invariant.Tokens.check_balance s.tok_acct ~time:(Sim.now ())
    ~expect_outstanding:s.active_tokens;
  Invariant.require ~invariant:"token-conservation" ~time:(Sim.now ())
    (s.active_tokens >= 0 && s.foreign_tokens >= 0)
    ~detail:(fun () ->
      Printf.sprintf "ssd%d: negative token balance (active=%d foreign=%d)"
        s.dev_idx s.active_tokens s.foreign_tokens);
  if pend.trace_id <> 0 then
    Trace.async_end ~track:s.track ~cat:"engine" ~id:pend.trace_id ("cmd." ^ pend.name);
  if pend.target <> None then s.swap_inflight <- s.swap_inflight - 1;
  admit s

let start t =
  if not t.started then begin
    t.started <- true;
    (* Commands submitted before the start have been waiting for it. *)
    Array.iter admit t.ssds;
    Array.iter (fun p -> Store.run_compactor p.store) t.parts;
    (* Swap-region reclamation: reset a swap log once (1) no segment table
       references it, (2) no swapped command toward it is in flight, and
       (3) no reader currently holds a pin into it. The compactor's
       merge-back clears references over time. *)
    Sim.every ~period:0.05 (fun () ->
        Array.iter
          (fun (s : ssd_sched) ->
            if Circular_log.used s.swap_log > 0 then begin
              let referenced =
                Array.exists
                  (fun p ->
                    Store.home_dev p.store <> s.dev_idx
                    && List.exists
                         (fun seg ->
                           Segtbl.dev (Segtbl.entry (Store.segtbl p.store) seg) = s.dev_idx)
                         (Segtbl.swapped_out (Store.segtbl p.store)))
                  t.parts
              in
              if
                (not referenced)
                && s.swap_inflight = 0
                && Queue.is_empty s.foreign
                && Circular_log.pinned s.swap_log = 0
              then begin
                let reclaim = Circular_log.committed_tail s.swap_log - Circular_log.head s.swap_log in
                if reclaim > 0 then Circular_log.advance_head s.swap_log reclaim
              end
            end)
          t.ssds;
        true)
  end

(* --- submission (§3.4 / §3.6) --- *)

(* Pick the least-loaded co-located SSD if the home SSD is overloaded by
   more than the configured gap. *)
let swap_candidate t (home : ssd_sched) =
  if (not t.config.swap_enabled) || Array.length t.ssds < 2 then None
  else begin
    let best = ref None in
    Array.iter
      (fun s ->
        if s.dev_idx <> home.dev_idx then
          match !best with
          | None -> best := Some s
          | Some b -> if ssd_load s < ssd_load b then best := Some s)
      t.ssds;
    match !best with
    | Some other when ssd_load home - ssd_load other >= t.config.swap_threshold -> Some other
    | _ -> None
  end

(* Wait for [admit]'s verdict on [pend], queued on [s], then run [cmd] on
   this fiber: [admit] hands a command over by one resume, and the
   command's completion is this function's return. *)
let await (type a) t (s : ssd_sched) pend (cmd : a cmd) : (a, failure) result =
  if t.started then admit s;
  match Sim.Ivar.read pend.verdict with
  | Shed_expired -> Error Shed
  | Run -> (
      match run_pending t s pend cmd with
      | result ->
          finish s pend;
          result
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish s pend;
          Printexc.raise_with_backtrace e bt)

let submit (type a) ?(deadline = 0.) t ~pid (cmd : a cmd) : (a, failure) result =
  let p = t.parts.(pid) in
  let home = p.sched in
  let tokens = token_cost cmd in
  let is_put = match cmd with Put _ -> true | Get _ | Del _ | Scrub _ -> false in
  let open_span (s : ssd_sched) =
    let trace_id = Trace.next_id () in
    if trace_id <> 0 then
      Trace.async_begin ~track:s.track ~cat:"engine" ~id:trace_id ("cmd." ^ cmd_name cmd)
        ~args:[ ("pid", Trace.Int pid); ("tokens", Trace.Int tokens) ];
    trace_id
  in
  let pending ~target trace_id =
    {
      name = cmd_name cmd;
      tokens;
      part = p;
      target;
      enqueued_at = Sim.now ();
      deadline;
      trace_id;
      verdict = Sim.Ivar.create ();
    }
  in
  match (is_put, swap_candidate t home) with
  | true, Some other ->
      (* Redirect the write: foreign queue, foreign logs (§3.6). *)
      let trace_id = open_span other in
      if trace_id <> 0 then
        Trace.instant ~track:home.track ~cat:"engine" "swap.redirect"
          ~args:[ ("to_ssd", Trace.Int other.dev_idx); ("pid", Trace.Int pid) ];
      let pend = pending ~target:(Some other.swap_log) trace_id in
      home.swapped_out <- home.swapped_out + 1;
      other.swapped_in <- other.swapped_in + 1;
      other.swap_inflight <- other.swap_inflight + 1;
      Queue.push pend other.foreign;
      other.foreign_tokens <- other.foreign_tokens + tokens;
      await t other pend cmd
  | _ when Queue.length p.waiting >= t.config.waiting_cap ->
      home.denied <- home.denied + 1;
      if Trace.on () then
        Trace.instant ~track:home.track ~cat:"engine" "tok.deny"
          ~args:[ ("pid", Trace.Int pid) ];
      Error Overloaded
  | _ ->
      let pend = pending ~target:None (open_span home) in
      Queue.push pend p.waiting;
      p.queued_tokens <- p.queued_tokens + tokens;
      await t home pend cmd

type ssd_stats = {
  executed : int;
  swapped_out : int;
  swapped_in : int;
  capacity : int;
  ewma_access_us : float;
  deferred : int;
  denied : int;
  shed : int;
}

let ssd_stats (s : ssd_sched) =
  {
    executed = s.executed;
    swapped_out = s.swapped_out;
    swapped_in = s.swapped_in;
    capacity = s.capacity;
    ewma_access_us = s.ewma_access_us;
    deferred = s.deferred;
    denied = s.denied;
    shed = s.shed;
  }

(* --- live gauges for the observability sampler --- *)

let active_tokens (s : ssd_sched) = s.active_tokens
let token_capacity (s : ssd_sched) = s.capacity
let ssd_device (s : ssd_sched) = s.dev
let ssd_track (s : ssd_sched) = s.track
let ssd_partitions (s : ssd_sched) = s.partitions
let swapped_segments (p : partition) = List.length (Segtbl.swapped_out (Store.segtbl p.store))
