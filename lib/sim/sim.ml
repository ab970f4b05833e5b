(* Discrete-event simulation engine.

   Processes are ordinary OCaml functions that perform effects ([delay],
   [suspend], [spawn]); a deep effect handler turns each into a coroutine
   scheduled on a global event scheduler. Blocking synchronisation
   primitives (Ivar, Mailbox, Resource) are built on the single [suspend]
   primitive, whose resume closure is single-shot, making timeouts
   race-free.

   The scheduler is pluggable (Scheduler.kind): a hierarchical timing
   wheel (the default), a calendar queue, or a binary heap (the test
   oracle). All three honour the same (time, key, seq) ordering contract
   exactly, so the dispatch sequence — and therefore every digest built
   on it — is bit-identical whichever one a run selects.

   Events live in a per-engine Event_store and are named by int
   handles: their time (as a stamp), tie-break key, seq and link are
   int words in one slab, recycled through the store's freelist, so the
   per-event path writes no boxed float and runs the write barrier only
   for the body (and a changed label). An event that resumes a fiber
   carries the fiber itself ([Resume]), not a closure over it. A timeout
   that loses its race is cancelled in place ([cancel]): its handle
   stays queued as a tombstone and is released, undispatched, when the
   scheduler reaches it.

   Spawned processes run on pooled fibers: a body that returns parks
   its fiber on the engine's pool, and the next [spawn] resumes it with
   the new body instead of starting a fresh one (see [spawn]).

   The engine knows every fiber it holds that is not running: parked
   ones in the pool, suspended ones in the held registry ([hold]), and
   sleeping, woken or newly assigned ones in the [Resume] body of a
   pending event. A continuation that is never resumed keeps its
   fiber's stack allocated even once it is unreachable, so when the run
   ends, however it ends, [tear_down] unwinds all of them. *)

exception Deadlock of string
exception Main_incomplete

(* Raised in a fiber that [tear_down] unwinds, and by every engine
   operation it attempts while unwinding. Private: nothing outside this
   file can catch it by name. *)
exception Torn_down

(* How simultaneous events are ordered. FIFO (key 0 for every event) is
   the historical insertion-order behaviour; Perturbed keys each event
   with a seeded stateless hash of its sequence number, exploring a
   different — equally legal, equally deterministic — ordering of
   equal-time events. Perturb_first only perturbs the first [limit]
   scheduled events (the rest get the FIFO key 0), which is what lets
   the race detector bisect a divergence down to the single event whose
   reordering flips the observables. *)
type tiebreak = Fifo | Perturbed of int | Perturb_first of { seed : int; limit : int }

type sched = Scheduler.kind = Binary_heap | Calendar | Wheel

type dispatch = { d_time : float; d_seq : int; d_label : string }

type engine = {
  mutable now : float;
  mutable seq : int;
  store : Event_store.t;
  sched : Scheduler.t;
  mutable stopped : bool;
  mutable spawned : int;
  mutable dispatched : int;
  mutable pending : int; (* live events: scheduled, not yet dispatched or cancelled *)
  mutable max_pending : int; (* high-water mark of [pending] *)
  tiebreak : tiebreak;
  on_dispatch : (dispatch -> unit) option;
  mutable cur_label : string; (* label of the event being executed *)
  dly : float array; (* [delay]'s duration, read by the [Delay] branch *)
  mutable handler : (unit, unit) Effect.Deep.handler; (* [exec]'s, built once in [run] *)
  mutable pool : (unit -> unit, unit) Effect.Deep.continuation array;
      (* parked fibers, a LIFO stack in [pool.(0 .. parked - 1)] *)
  mutable parked : int;
  mutable held : held array; (* suspended fibers by slot *)
  mutable held_link : int array;
      (* [holding] for a slot in use, else the next free slot ([-1] ends) *)
  mutable held_free : int; (* first free slot, [-1] when none *)
  mutable n_held : int; (* slots ever used *)
}

(* A fiber suspended in [suspend], until its resume closure is called.
   A freed slot keeps its block until reused, as the store keeps a
   released handle's body: freeing is int stores only. *)
and held = Vacant | Held : ('a, unit) Effect.Deep.continuation -> held

let holding = -2

let current : engine option ref = ref None

(* True while [tear_down] unwinds a finished run's fibers. The engine
   being torn down stays current, so nothing a fiber does while
   unwinding can reach an outer engine through [current]; every engine
   operation refuses (raises [Torn_down]) instead. Global, not per
   engine: a dying fiber can still hold a resume closure of an outer
   run's fiber. *)
let dying = ref false

let get_engine () =
  match !current with
  | Some e ->
      if !dying then raise Torn_down;
      e
  | None -> failwith "Sim: no simulation running (call inside Sim.run)"

(* The equal-time ordering key of the event with sequence number [seq]. *)
let[@inline] key_of tiebreak seq =
  match tiebreak with
  | Fifo -> 0
  | Perturbed seed -> Rng.hash2 seed seq
  | Perturb_first { seed; limit } -> if seq <= limit then Rng.hash2 seed seq else 0

(* Queue [run] at [at] and return its handle; the handle and [eng.seq]
   as of the return are the event's [cancel] handle. The slab writes are
   int stores: no barrier. *)
let schedule eng ~label ~at body =
  if !dying then raise Torn_down;
  (* [at >= now] is also false for NaN, so a poisoned latency computation
     trips here instead of silently freezing the dispatch order. Guarded
     on [active] so the off path does not allocate the detail closure —
     this is the hottest call site in the simulator. *)
  if Invariant.active () then
    Invariant.require ~invariant:"event-time-monotonicity" ~time:eng.now
      (at >= eng.now)
      ~detail:(fun () ->
        Printf.sprintf "event scheduled into the past (at=%.9g, now=%.9g)" at eng.now);
  let seq = eng.seq + 1 in
  eng.seq <- seq;
  let st = eng.store in
  let h = Event_store.alloc st in
  Event_store.set st h ~stamp:(Event_store.stamp_of_time at) ~key:(key_of eng.tiebreak seq) ~seq
    ~label ~body;
  Scheduler.add eng.sched h;
  (* Tracked incrementally rather than asking the scheduler: one fewer
     closure call per scheduled event. *)
  eng.pending <- eng.pending + 1;
  if eng.pending > eng.max_pending then eng.max_pending <- eng.pending;
  h

(* Queue an event that resumes fiber [k] with [v]. *)
let schedule_fiber eng ~label ~at k v = ignore (schedule eng ~label ~at (Resume (k, v)))

(* Tombstone the event [schedule] returned as handle [h] with sequence
   number [seq]. The handle stays where the scheduler put it — stamp,
   key and seq untouched, so every live event keeps its place in the
   (time, key, seq) order under any tie-break — but drops its closure
   and stops counting as pending; the dispatch loop releases it without
   dispatching it. Once the event has been dispatched, its released
   handle carries seq 0 or a later event's seq, so a late cancel is a
   no-op. [eng] must be the engine that scheduled the event, which is
   not always the current one: a nested run can fill an outer Ivar. *)
let cancel eng h seq =
  let st = eng.store in
  if Event_store.seq st h = seq then begin
    Event_store.cancel st h;
    eng.pending <- eng.pending - 1
  end

(* [Delay] is a constant: the duration travels in the engine's [dly]
   slot, so performing it allocates no effect block and no float box.
   [Park] is a constant too: a pooled fiber performs it when its body
   returns, and is resumed with its next body. *)
type _ Effect.t +=
  | Delay : unit Effect.t
  | Park : (unit -> unit) Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* Push a parked fiber. The pool grows by doubling, filled with [k]
   itself, so it needs no placeholder continuation. *)
let park eng k =
  let n = eng.parked in
  if n = Array.length eng.pool then begin
    let pool = Array.make (max 16 (2 * n)) k in
    Array.blit eng.pool 0 pool 0 n;
    eng.pool <- pool
  end
  else eng.pool.(n) <- k;
  eng.parked <- n + 1

(* Put a suspended fiber in a free slot of the held registry. *)
let hold eng h =
  let slot =
    if eng.held_free >= 0 then begin
      let slot = eng.held_free in
      eng.held_free <- eng.held_link.(slot);
      slot
    end
    else begin
      let n = eng.n_held in
      if n = Array.length eng.held then begin
        let size = max 16 (2 * n) in
        eng.held <- Array.append eng.held (Array.make (size - n) Vacant);
        eng.held_link <- Array.append eng.held_link (Array.make (size - n) (-1))
      end;
      eng.n_held <- n + 1;
      n
    end
  in
  eng.held_link.(slot) <- holding;
  eng.held.(slot) <- h;
  slot

(* Whether the suspension of [k] still holds [slot]. Each suspension
   has its own continuation, so identity on it tells a later resume, or
   one after the slot was reused, from the first. [Obj.repr] only
   compares addresses: [Held] hides the continuation's type. *)
let is_held eng slot k =
  eng.held_link.(slot) = holding
  && match eng.held.(slot) with Held k' -> Obj.repr k' == Obj.repr k | Vacant -> false

let free_slot eng slot =
  eng.held_link.(slot) <- eng.held_free;
  eng.held_free <- slot

(* Unwind one fiber. Whatever it raises is dropped: the run it belonged
   to is over, and any engine operation it tries raises [Torn_down]. *)
let discard k = match Effect.Deep.discontinue k Torn_down with () -> () | exception _ -> ()

(* Unwind every fiber the engine holds: suspended, in a pending event,
   then parked (a fiber whose body catches [Torn_down] and returns
   parks again, so the pool goes last). *)
let tear_down eng =
  dying := true;
  for slot = 0 to eng.n_held - 1 do
    if eng.held_link.(slot) = holding then begin
      free_slot eng slot;
      match eng.held.(slot) with Held k -> discard k | Vacant -> ()
    end
  done;
  let st = eng.store in
  for h = 0 to Event_store.capacity st - 1 do
    if Event_store.seq st h <> 0 then
      match Event_store.body st h with Resume (k, _) -> discard k | Call _ | Apply _ | Cancelled -> ()
  done;
  for i = 0 to eng.parked - 1 do
    discard eng.pool.(i)
  done;
  eng.pool <- [||];
  eng.parked <- 0;
  dying := false

(* The engine's one effect handler. Every process runs under it, so a
   spawn allocates no handler record, and the [Delay] and [Park]
   branches return preallocated options instead of a fresh option and
   closure. *)
let make_handler eng : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        schedule_fiber eng ~label:eng.cur_label ~at:(eng.now +. Array.unsafe_get eng.dly 0) k ())
  in
  let on_park = Some (fun (k : (unit -> unit, unit) continuation) -> park eng k) in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Delay -> (on_delay : ((a, unit) continuation -> unit) option)
        | Park -> (on_park : ((a, unit) continuation -> unit) option)
        | Suspend register ->
            Some
              (fun (k : (a, _) continuation) ->
                (* The resume closure may run from any other process's
                   event; tag the wake-up with the suspended process's
                   own label, not the resumer's. *)
                let label = eng.cur_label in
                let slot = hold eng (Held k) in
                register (fun v ->
                    if is_held eng slot k then begin
                      (* Scheduled first: while the engine is torn down
                         this raises, and the fiber stays held. *)
                      schedule_fiber eng ~label ~at:eng.now k v;
                      free_slot eng slot
                    end))
        | _ -> None);
  }

let exec eng f = Effect.Deep.match_with f () eng.handler

(* A pooled fiber's body: run a process, park, run the next one it is
   resumed with. A process that raises unwinds the fiber, which then
   never returns to the pool. *)
let rec worker f =
  f ();
  worker (Effect.perform Park)

let now () = (get_engine ()).now

let[@inline] perform_delay t =
  Array.unsafe_set (get_engine ()).dly 0 t;
  Effect.perform Delay

let delay t = if t > 0. then perform_delay t
let suspend register =
  if !dying then raise Torn_down;
  Effect.perform (Suspend register)

(* [spawn] and [after] are not effects: they only mutate the scheduler, so
   they are callable from anywhere — including resume-registration callbacks
   that run outside any process handler. Unlabelled children inherit the
   spawner's label, so attribution stays allocation-free on hot paths.

   A spawn takes the most recently parked fiber when there is one and
   starts a new worker fiber otherwise. Either way it schedules one
   event at [now] with the same label and seq, so which fiber runs a
   process never shows in the dispatch order. A fresh fiber starts at
   64 words and grows by copying itself to twice the size; a parked
   one keeps the stack its earlier bodies grew. *)
let spawn ?label f =
  let eng = get_engine () in
  eng.spawned <- eng.spawned + 1;
  let label = match label with Some l -> l | None -> eng.cur_label in
  let n = eng.parked in
  if n > 0 then begin
    let k = eng.pool.(n - 1) in
    eng.parked <- n - 1;
    schedule_fiber eng ~label ~at:eng.now k f
  end
  else
    ignore
      (schedule eng ~label ~at:eng.now (Call (fun () -> Effect.Deep.match_with worker f eng.handler)))

(* Run [f] (non-blocking) after [t] seconds without creating a process. *)
let after t f =
  let eng = get_engine () in
  ignore (schedule eng ~label:eng.cur_label ~at:(eng.now +. t) (Call f))
let yield () = perform_delay 0.

let stop () =
  let eng = get_engine () in
  eng.stopped <- true

(* Scheduler introspection, sampled by the observability layer. *)
let events_dispatched () = (get_engine ()).dispatched
let heap_depth () = (get_engine ()).pending
let max_pending_events () = (get_engine ()).max_pending
let processes_spawned () = (get_engine ()).spawned

(* Placeholder until [run] installs the engine's own handler. *)
let idle_handler : (unit, unit) Effect.Deep.handler =
  { retc = (fun () -> ()); exnc = raise; effc = (fun _ -> None) }

(* The process's GC policy (DESIGN.md §8). A simulated op's state —
   continuations, closures, messages, encoded buckets — lives from
   issue to completion. OCaml's default 256 K-word minor heap fills
   every ~190 ops while ~128 are in flight, so that state is promoted
   and dies in the major heap, whose free-space overhead also scales
   with the flash image it holds. A 4 M-word (32 MiB) minor heap lets
   it die young, and a lower overhead keeps the major heap nearer its
   live data: 20 is the smallest of 80, 40, 20 and 10 that cost no
   measurable wall time (at 10, faults-abd ran ~2 % slower). Both only
   tighten: a larger minor heap or a smaller overhead already set (say
   by OCAMLRUNPARAM) is kept, so a nested or later run changes
   nothing. *)
let gc_minor_heap_words = 4 * 1024 * 1024
let gc_space_overhead = 20

let tighten_gc () =
  let g = Gc.get () in
  if g.minor_heap_size < gc_minor_heap_words || g.space_overhead > gc_space_overhead then
    Gc.set
      {
        g with
        minor_heap_size = max g.minor_heap_size gc_minor_heap_words;
        space_overhead = min g.space_overhead gc_space_overhead;
      }

let run ?(until = infinity) ?checks ?(tiebreak = Fifo) ?(sched = Wheel) ?on_dispatch
    (main : unit -> 'a) : 'a =
  if !dying then raise Torn_down;
  tighten_gc ();
  (* An outermost run starts from a reclaimed heap: the worlds earlier
     runs dropped are collected before this one builds its own, so its
     peak heap does not depend on what ran before it. *)
  if Option.is_none !current then Gc.full_major ();
  let store = Event_store.create () in
  let eng =
    {
      now = 0.;
      seq = 0;
      store;
      sched = Scheduler.create sched store;
      stopped = false;
      spawned = 0;
      dispatched = 0;
      pending = 0;
      max_pending = 0;
      tiebreak;
      on_dispatch;
      cur_label = "main";
      dly = [| 0. |];
      handler = idle_handler;
      pool = [||];
      parked = 0;
      held = [||];
      held_link = [||];
      held_free = -1;
      n_held = 0;
    }
  in
  eng.handler <- make_handler eng;
  let saved = !current in
  current := Some eng;
  let saved_checks = Invariant.active () in
  (match checks with Some b -> Invariant.set_enabled b | None -> ());
  let result = ref None in
  let main_done = ref false in
  ignore
    (schedule eng ~label:"main" ~at:0.
       (Call
          (fun () ->
            exec eng (fun () ->
                result := Some (main ());
                main_done := true))));
  let finish () =
    tear_down eng;
    current := saved;
    Invariant.set_enabled saved_checks
  in
  (try
     let until_stamp = Event_store.stamp_of_time until in
     let continue_loop = ref true in
     (* The loop ends as soon as the main process has its result: daemon
        processes (periodic compactors, heartbeats) must not keep the
        simulation alive forever. *)
     while !continue_loop && not eng.stopped && not !main_done do
       (* One fused scheduler call per dispatch, compared on stamps, so
          no float crosses the call. [nil] means empty or
          next-beyond-[until]; the two are told apart on the cold path
          below. *)
       let h = Scheduler.pop_until eng.sched until_stamp in
       if h = Event_store.nil then begin
         if Scheduler.peek_time eng.sched < infinity then eng.now <- until;
         continue_loop := false
       end
       else begin
         let st = eng.store in
         let body = Event_store.body st h in
         (* A tombstone is released unseen — no dispatch count, no clock
            move, no [on_dispatch]; [cancel] already dropped it from
            [pending]. Otherwise the handle is released before dispatch,
            since the body is free to schedule (and so reuse it) at once;
            releasing is int stores only. *)
         if body == Cancelled then Event_store.release st h
         else begin
           let time = Event_store.time st h in
           let seq = Event_store.seq st h in
           let label = Event_store.label st h in
           Event_store.release st h;
           (* Guarded on [active] like the one in [schedule]: the off path
              must not allocate the detail closure on every dispatch. *)
           if Invariant.active () then
             Invariant.require ~invariant:"event-time-monotonicity" ~time:eng.now
               (time >= eng.now)
               ~detail:(fun () ->
                 Printf.sprintf "scheduler yielded an event at t=%.9g behind the clock" time);
           (* [now] is a boxed field: box (and barrier) only when the
              clock moves, not for every same-instant event. *)
           if time <> eng.now then eng.now <- time;
           eng.dispatched <- eng.dispatched + 1;
           eng.pending <- eng.pending - 1;
           if label != eng.cur_label then eng.cur_label <- label;
           (match eng.on_dispatch with
           | None -> ()
           | Some f -> f { d_time = time; d_seq = seq; d_label = label });
           match body with
           | Call f -> f ()
           | Apply (f, v) -> f v
           | Resume (k, v) -> Effect.Deep.continue k v
           | Cancelled -> ()
         end
       end
     done
   with e ->
     finish ();
     raise e);
  (* Read before [finish]: a fiber [tear_down] unwinds cannot supply a
     result. *)
  let result = !result in
  finish ();
  match result with
  | Some v -> v
  | None ->
      if until = infinity && not eng.stopped then
        raise
          (Deadlock
             (Printf.sprintf
                "main process blocked forever at t=%g with %d spawned processes"
                eng.now eng.spawned))
      else raise Main_incomplete

(* Time helpers: the simulation clock is in seconds. *)
let us x = x *. 1e-6
let ms x = x *. 1e-3
let to_us t = t *. 1e6

(* Virtual-time comparison helpers (epsilon-free: the clock only ever
   takes values that were scheduled, so exact float comparison is sound
   — but it belongs here, in one reviewed place, not scattered over the
   codebase where simlint R7 forbids it). *)
let reached t = now () >= t
let past t = now () > t
let same_instant t = now () = t

(* ------------------------------------------------------------------ *)

(* An Ivar: its waiters until it is filled, then its value. *)
type 'a ivar_state = Empty of ('a -> unit) list | Full of 'a
type 'a ivar = { mutable state : 'a ivar_state }

(* Run [f] at fill time (now if already full). It lives outside [Ivar],
   which sim.mli exports field for field: an implementation field the
   interface drops would make the compiler build [Ivar] at run time, and
   every closure that uses it would then capture it. *)
let on_fill t f =
  match t.state with
  | Full v -> f v
  | Empty ws -> t.state <- Empty (f :: ws)

module Ivar = struct
  type 'a t = 'a ivar

  let create () = { state = Empty [] }

  (* Refused before the state changes while a run is torn down, as its
     waiters' resumes would be. *)
  let fill t v =
    if !dying then raise Torn_down;
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        t.state <- Full v;
        List.iter (fun w -> w v) (List.rev waiters)

  let try_fill t v = match t.state with Full _ -> false | Empty _ -> fill t v; true
  let is_filled t = match t.state with Full _ -> true | Empty _ -> false

  let read t =
    match t.state with
    | Full v -> v
    | Empty _ -> suspend (fun resume -> on_fill t resume)

  (* [None] if the timeout elapses first. A fill that wins cancels the
     timer, so it is never dispatched; a fill after the timeout finds the
     cancel handle stale and the resume already spent. *)
  let read_timeout t timeout =
    match t.state with
    | Full v -> Some v
    | Empty _ ->
        suspend (fun resume ->
            let eng = get_engine () in
            let timer =
              schedule eng ~label:eng.cur_label ~at:(eng.now +. timeout) (Apply (resume, None))
            in
            let seq = eng.seq in
            on_fill t (fun v ->
                cancel eng timer seq;
                resume (Some v)))
end

module Mailbox = struct
  (* Waiters sit in a Queue; a timed-out waiter is tombstoned in place
     ([cancelled]) and dropped lazily when [send] reaches it. Enqueue,
     cancel and (amortised) dequeue are all O(1) — the previous
     representation appended to and filtered a plain list, which made a
     mailbox with n blocked receivers O(n) per operation. FIFO wake
     order is unchanged: live waiters wake strictly in arrival order. *)
  type 'a waiter = { mutable cancelled : bool; wake : 'a -> unit }
  type 'a t = { items : 'a Queue.t; waiters : 'a waiter Queue.t }

  let create () = { items = Queue.create (); waiters = Queue.create () }

  (* Oldest live waiter, discarding tombstones on the way. *)
  let rec next_waiter t =
    match Queue.take_opt t.waiters with
    | None -> None
    | Some w -> if w.cancelled then next_waiter t else Some w

  let send t v =
    if !dying then raise Torn_down;
    match next_waiter t with
    | None -> Queue.push v t.items
    | Some w -> w.wake v

  let try_recv t = if Queue.is_empty t.items then None else Some (Queue.pop t.items)

  let recv t =
    match try_recv t with
    | Some v -> v
    | None ->
        suspend (fun resume -> Queue.push { cancelled = false; wake = resume } t.waiters)

  let recv_timeout t timeout =
    match try_recv t with
    | Some v -> Some v
    | None ->
        suspend (fun resume ->
            let eng = get_engine () in
            (* The waiter is queued before the timer exists; its wake
               reads the cancel handle filled in just below. *)
            let timer = ref Event_store.nil and seq = ref 0 in
            let w =
              {
                cancelled = false;
                wake =
                  (fun v ->
                    cancel eng !timer !seq;
                    resume (Some v));
              }
            in
            Queue.push w t.waiters;
            timer :=
              schedule eng ~label:eng.cur_label ~at:(eng.now +. timeout)
                (Call
                   (fun () ->
                     (* Only reached when the timeout wins: a send that
                        wins cancels this event. The waiter must be
                        tombstoned so a later send is not swallowed. *)
                     w.cancelled <- true;
                     resume None));
            seq := eng.seq)
end

module Resource = struct
  (* All-float, so OCaml stores the fields flat and [account] updates them
     in place; as float fields of [t] every update would box. *)
  type busy = { mutable area : float; mutable last_change : float }

  type t = {
    name : string;
    capacity : int;
    mutable in_use : int;
    queue : (unit -> unit) Queue.t; (* wake-ups of blocked acquirers *)
    busy : busy; (* cumulative busy integral for utilisation reporting *)
  }

  let create ?(name = "resource") ~capacity () =
    if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
    { name; capacity; in_use = 0; queue = Queue.create (); busy = { area = 0.; last_change = 0. } }

  let account t =
    let t_now = now () and b = t.busy in
    b.area <- b.area +. (float_of_int t.in_use *. (t_now -. b.last_change));
    b.last_change <- t_now

  let in_use t = t.in_use
  let waiting t = Queue.length t.queue
  let capacity t = t.capacity

  let acquire t =
    if Queue.is_empty t.queue && t.in_use < t.capacity then begin
      account t;
      t.in_use <- t.in_use + 1
    end
    else suspend (fun resume -> Queue.push resume t.queue)

  let release t =
    account t;
    t.in_use <- t.in_use - 1;
    if t.in_use < 0 then invalid_arg (Printf.sprintf "Resource.release: %s under-released" t.name);
    (* Wake waiters strictly in FIFO order while they fit. *)
    let rec wake () =
      if t.in_use < t.capacity && not (Queue.is_empty t.queue) then begin
        let w = Queue.pop t.queue in
        account t;
        t.in_use <- t.in_use + 1;
        w ();
        wake ()
      end
    in
    wake ()

  let with_ t f =
    acquire t;
    match f () with
    | v ->
        release t;
        v
    | exception e ->
        release t;
        raise e

  let utilisation t =
    account t;
    if now () <= 0. then 0.
    else t.busy.area /. (float_of_int t.capacity *. now ())

  let busy_time t =
    account t;
    t.busy.area
end

(* Spawn all thunks and block until every one has finished. *)
let fork_join_named (fs : (string option * (unit -> unit)) list) =
  let n = List.length fs in
  if n = 0 then ()
  else begin
    let done_ = Ivar.create () in
    let remaining = ref n in
    List.iter
      (fun (label, f) ->
        spawn ?label (fun () ->
            f ();
            decr remaining;
            if !remaining = 0 then Ivar.fill done_ ()))
      fs;
    Ivar.read done_
  end

let fork_join fs = fork_join_named (List.map (fun f -> (None, f)) fs)

(* Run [f] every [period] until it returns [false]. *)
let every ~period f =
  spawn (fun () ->
      let rec loop () =
        delay period;
        if f () then loop ()
      in
      loop ())
