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
   for the closure (and a changed label). A timeout that loses its race
   is cancelled in place ([cancel]): its handle stays queued as a
   tombstone and is released, undispatched, when the scheduler reaches
   it. *)

exception Deadlock of string
exception Main_incomplete

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
}

let current : engine option ref = ref None

let get_engine () =
  match !current with
  | Some e -> e
  | None -> failwith "Sim: no simulation running (call inside Sim.run)"

(* The equal-time ordering key of the event with sequence number [seq]. *)
let[@inline] key_of tiebreak seq =
  match tiebreak with
  | Fifo -> 0
  | Perturbed seed -> Rng.hash2 seed seq
  | Perturb_first { seed; limit } -> if seq <= limit then Rng.hash2 seed seq else 0

(* Event_store.stamp_of_time and its inverse, copied here so they
   compile inline on the per-event path: a float passed to or returned
   from another module is boxed (the default dev profile builds with
   -opaque, so nothing crosses modules inline). *)
let[@inline] stamp_of_time t = Int64.to_int (Int64.sub (Int64.bits_of_float t) 0x4000_0000_0000_0000L)
let[@inline] time_of_stamp s = Int64.float_of_bits (Int64.add (Int64.of_int s) 0x4000_0000_0000_0000L)

(* [schedule] and [run]'s dispatch address the store's slots and
   freelist inline (layout in event_store.mli); the literal 10 there is
   [Event_store.chunk_bits]. *)
let () = assert (Event_store.chunk_bits = 10)

(* Queue [run] at [at] and return its handle; the handle and [eng.seq]
   as of the return are the event's [cancel] handle. The slab writes are
   int stores: no barrier. *)
let schedule eng ~label ~at run =
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
  let h =
    if st.free = Event_store.nil then Event_store.alloc st
    else begin
      let h = st.free in
      st.free <- st.slab.(h lsr 10).(((h land 1023) lsl 2) + 3);
      h
    end
  in
  let c = h lsr 10 and i = h land 1023 in
  let s = st.slab.(c) and j = i lsl 2 in
  s.(j) <- stamp_of_time at;
  s.(j + 1) <- key_of eng.tiebreak seq;
  s.(j + 2) <- seq;
  st.run.(c).(i) <- run;
  (* A recycled handle usually carried the same label: skip the barrier. *)
  let labels = st.label.(c) in
  if labels.(i) != label then labels.(i) <- label;
  Scheduler.add eng.sched h;
  (* Tracked incrementally rather than asking the scheduler: one fewer
     closure call per scheduled event. *)
  eng.pending <- eng.pending + 1;
  if eng.pending > eng.max_pending then eng.max_pending <- eng.pending;
  h

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

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let exec : engine -> (unit -> unit) -> unit =
 fun eng f ->
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay t ->
              Some
                (fun (k : (a, _) continuation) ->
                  ignore
                    (schedule eng ~label:eng.cur_label ~at:(eng.now +. t) (fun () ->
                         continue k ())))
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let resumed = ref false in
                  (* The resume closure may run from any other process's
                     event; tag the wake-up with the suspended process's
                     own label, not the resumer's. *)
                  let label = eng.cur_label in
                  register (fun v ->
                      if not !resumed then begin
                        resumed := true;
                        ignore (schedule eng ~label ~at:eng.now (fun () -> continue k v))
                      end))
          | _ -> None);
    }

let now () = (get_engine ()).now
let delay t = if t > 0. then Effect.perform (Delay t) else ()
let suspend register = Effect.perform (Suspend register)

(* [spawn] and [after] are not effects: they only mutate the scheduler, so
   they are callable from anywhere — including resume-registration callbacks
   that run outside any process handler. Unlabelled children inherit the
   spawner's label, so attribution stays allocation-free on hot paths. *)
let spawn ?label f =
  let eng = get_engine () in
  eng.spawned <- eng.spawned + 1;
  let label = match label with Some l -> l | None -> eng.cur_label in
  ignore (schedule eng ~label ~at:eng.now (fun () -> exec eng f))

(* Run [f] (non-blocking) after [t] seconds without creating a process. *)
let after t f =
  let eng = get_engine () in
  ignore (schedule eng ~label:eng.cur_label ~at:(eng.now +. t) f)
let yield () = Effect.perform (Delay 0.)

let stop () =
  let eng = get_engine () in
  eng.stopped <- true

(* Scheduler introspection, sampled by the observability layer. *)
let events_dispatched () = (get_engine ()).dispatched
let heap_depth () = (get_engine ()).pending
let max_pending_events () = (get_engine ()).max_pending
let processes_spawned () = (get_engine ()).spawned

let run ?(until = infinity) ?checks ?(tiebreak = Fifo) ?(sched = Wheel) ?on_dispatch
    (main : unit -> 'a) : 'a =
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
    }
  in
  let saved = !current in
  current := Some eng;
  let saved_checks = Invariant.active () in
  (match checks with Some b -> Invariant.set_enabled b | None -> ());
  let result = ref None in
  let main_done = ref false in
  ignore
    (schedule eng ~label:"main" ~at:0. (fun () ->
         exec eng (fun () ->
             result := Some (main ());
             main_done := true)));
  let finish () =
    current := saved;
    Invariant.set_enabled saved_checks
  in
  (try
     let until_stamp = stamp_of_time until in
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
         let c = h lsr 10 and i = h land 1023 in
         let run = st.run.(c).(i) in
         (* A tombstone is released unseen — no dispatch count, no clock
            move, no [on_dispatch]; [cancel] already dropped it from
            [pending]. Otherwise the handle is released before dispatch,
            since the body is free to schedule (and so reuse it) at once;
            releasing is int stores only. *)
         if run == Event_store.cancelled then Event_store.release st h
         else begin
           let s = st.slab.(c) and j = i lsl 2 in
           let time = time_of_stamp s.(j) in
           let seq = s.(j + 2) in
           let label = st.label.(c).(i) in
           (* Event_store.release, inline. *)
           s.(j + 2) <- 0;
           s.(j + 3) <- st.free;
           st.free <- h;
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
           run ()
         end
       end
     done
   with e ->
     finish ();
     raise e);
  finish ();
  match !result with
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

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        t.state <- Full v;
        List.iter (fun w -> w v) (List.rev waiters)

  let try_fill t v = match t.state with Full _ -> false | Empty _ -> fill t v; true
  let is_filled t = match t.state with Full _ -> true | Empty _ -> false
  let peek t = match t.state with Full v -> Some v | Empty _ -> None

  let on_fill t f =
    match t.state with
    | Full v -> f v
    | Empty ws -> t.state <- Empty (f :: ws)

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
              schedule eng ~label:eng.cur_label ~at:(eng.now +. timeout) (fun () -> resume None)
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
  let length t = Queue.length t.items
  let is_empty t = Queue.is_empty t.items

  (* Oldest live waiter, discarding tombstones on the way. *)
  let rec next_waiter t =
    match Queue.take_opt t.waiters with
    | None -> None
    | Some w -> if w.cancelled then next_waiter t else Some w

  let send t v =
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
              schedule eng ~label:eng.cur_label ~at:(eng.now +. timeout) (fun () ->
                  (* Only reached when the timeout wins: a send that wins
                     cancels this event. The waiter must be tombstoned so
                     a later send is not swallowed. *)
                  w.cancelled <- true;
                  resume None);
            seq := eng.seq)
end

module Resource = struct
  type waiter = { amount : int; wake : unit -> unit }

  (* All-float, so OCaml stores the fields flat and [account] updates them
     in place; as float fields of [t] every update would box. *)
  type busy = { mutable area : float; mutable last_change : float }

  type t = {
    name : string;
    capacity : int;
    mutable in_use : int;
    queue : waiter Queue.t;
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

  let acquire ?(amount = 1) t =
    if amount > t.capacity then
      invalid_arg (Printf.sprintf "Resource.acquire: amount %d > capacity %d (%s)" amount t.capacity t.name);
    if Queue.is_empty t.queue && t.in_use + amount <= t.capacity then begin
      account t;
      t.in_use <- t.in_use + amount
    end
    else
      suspend (fun resume ->
          Queue.push { amount; wake = (fun () -> resume ()) } t.queue)

  let release ?(amount = 1) t =
    account t;
    t.in_use <- t.in_use - amount;
    if t.in_use < 0 then invalid_arg (Printf.sprintf "Resource.release: %s under-released" t.name);
    (* Wake waiters strictly in FIFO order while they fit. *)
    let rec wake () =
      match Queue.peek_opt t.queue with
      | Some w when t.in_use + w.amount <= t.capacity ->
          ignore (Queue.pop t.queue);
          account t;
          t.in_use <- t.in_use + w.amount;
          w.wake ();
          wake ()
      | _ -> ()
    in
    wake ()

  let with_ ?(amount = 1) t f =
    acquire ~amount t;
    match f () with
    | v ->
        release ~amount t;
        v
    | exception e ->
        release ~amount t;
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
