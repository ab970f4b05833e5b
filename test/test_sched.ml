(* Scheduler equivalence: the binary heap (reference), the calendar
   queue and the timing wheel must be interchangeable — bit-identical
   dispatch sequences under every tie-break policy, hence identical
   race-target and chaos digests. These tests drive seeded random event
   storms (equal-time bursts, same-instant churn, far-future timers
   that cross the wheel's overflow horizon) through [Sim.run ?sched]
   and compare the full [on_dispatch] logs, plus a micro property test
   on the raw scheduler API. *)

open Leed_sim
module Race = Leed_race.Race

let scheds = [ Sim.Binary_heap; Sim.Calendar; Sim.Wheel ]
let sched_name = Scheduler.name

(* --- dispatch-log capture ------------------------------------------ *)

(* Times compare as raw bits: "bit-identical" means exactly that. *)
let dispatch_log ~sched ~tiebreak f =
  let log = ref [] in
  ignore
    (Sim.run ~sched ~tiebreak
       ~on_dispatch:(fun d ->
         log := (Int64.bits_of_float d.Sim.d_time, d.Sim.d_seq, d.Sim.d_label) :: !log)
       f);
  List.rev !log

let check_logs_equal ~what ~tiebreak f =
  let reference = dispatch_log ~sched:Sim.Binary_heap ~tiebreak f in
  Alcotest.(check bool) (what ^ ": reference log nonempty") true (reference <> []);
  List.iter
    (fun sched ->
      if sched <> Sim.Binary_heap then
        Alcotest.(check (list (triple int64 int string)))
          (Printf.sprintf "%s: %s = heap" what (sched_name sched))
          reference
          (dispatch_log ~sched ~tiebreak f))
    scheds

(* --- seeded random storms ------------------------------------------ *)

(* A storm mixes the patterns that distinguish the structures: bursts
   of events at the same quantised instant (tie-break territory),
   same-instant spawn/Ivar churn (front-heap territory for the wheel),
   short uniform delays (calendar bucket territory), heartbeat-scale
   delays (level-2 cascade territory), far-future timers beyond the
   wheel's ~16 s horizon (overflow territory), and timeout races whose
   fill lands before, at or after the timeout (tombstone territory: a
   losing timer is cancelled in place and must vanish identically from
   every structure). *)
let storm ~seed ~workers ~steps () =
  Sim.fork_join_named
    (List.init workers (fun wkr ->
         ( Some (Printf.sprintf "storm:%d" wkr),
           fun () ->
             let rng = Rng.create (Rng.hash2 seed wkr) in
             for step = 1 to steps do
               let r = Rng.float rng in
               if r < 0.25 then
                 (* quantised: collides across workers at equal times *)
                 Sim.delay (float_of_int (Rng.int rng 5) *. 1e-3)
               else if r < 0.32 then
                 (* beyond the wheel horizon *)
                 Sim.delay (17. +. (Rng.float rng *. 40.))
               else if r < 0.4 then
                 (* heartbeat scale: exercises level-1/2 cascades *)
                 Sim.delay (0.05 +. (Rng.float rng *. 0.4))
               else if r < 0.55 then begin
                 (* same-instant churn *)
                 let iv = Sim.Ivar.create () in
                 Sim.spawn (fun () -> Sim.Ivar.fill iv step);
                 ignore (Sim.Ivar.read iv)
               end
               else if r < 0.62 then
                 (* detached timer event *)
                 Sim.after (Rng.float rng *. 2.) (fun () -> ())
               else if r < 0.72 then begin
                 (* timeout race; the same-instant case is a tie the
                    tie-break decides *)
                 let timeout = float_of_int (1 + Rng.int rng 3) *. 1e-3 in
                 let fill_at =
                   match Rng.int rng 3 with
                   | 0 -> timeout /. 2.
                   | 1 -> timeout
                   | _ -> timeout *. 2.
                 in
                 if Rng.int rng 2 = 0 then begin
                   let iv = Sim.Ivar.create () in
                   Sim.after fill_at (fun () -> Sim.Ivar.fill iv step);
                   ignore (Sim.Ivar.read_timeout iv timeout)
                 end
                 else begin
                   let mb = Sim.Mailbox.create () in
                   Sim.after fill_at (fun () -> Sim.Mailbox.send mb step);
                   ignore (Sim.Mailbox.recv_timeout mb timeout)
                 end
               end
               else Sim.delay (Rng.float rng *. 0.01)
             done )));
  Sim.events_dispatched ()

let test_storm_fifo () =
  List.iter
    (fun seed ->
      check_logs_equal
        ~what:(Printf.sprintf "storm seed=%d fifo" seed)
        ~tiebreak:Sim.Fifo
        (fun () -> storm ~seed ~workers:6 ~steps:40 ()))
    [ 1; 2; 3 ]

let test_storm_perturbed () =
  List.iter
    (fun seed ->
      check_logs_equal
        ~what:(Printf.sprintf "storm seed=%d perturbed" seed)
        ~tiebreak:(Sim.Perturbed (0xBEEF + seed))
        (fun () -> storm ~seed ~workers:6 ~steps:40 ()))
    [ 1; 2 ]

let test_storm_perturb_first () =
  (* The bisection policy the race detector sweeps: only the first
     [limit] events get perturbed keys. *)
  List.iter
    (fun limit ->
      check_logs_equal
        ~what:(Printf.sprintf "storm perturb_first limit=%d" limit)
        ~tiebreak:(Sim.Perturb_first { seed = 77; limit })
        (fun () -> storm ~seed:5 ~workers:4 ~steps:30 ()))
    [ 0; 1; 64; 100000 ]

let test_heartbeats () =
  (* Periodic timers riding far ahead of a slowly draining workload:
     the wheel spends its time in level-2 cascades and edge jumps. *)
  check_logs_equal ~what:"heartbeats" ~tiebreak:Sim.Fifo (fun () ->
      let ticks = ref 0 in
      Sim.every ~period:0.2 (fun () ->
          incr ticks;
          !ticks < 50);
      Sim.every ~period:0.7 (fun () -> !ticks < 40);
      Sim.delay 9.5;
      !ticks)

let test_overflow_refill () =
  (* Everything lands beyond the horizon, then trickles back in:
     exercises the wheel's overflow drain and empty-wheel edge jump,
     and the calendar queue's direct-search fallback. *)
  check_logs_equal ~what:"overflow refill" ~tiebreak:Sim.Fifo (fun () ->
      let rng = Rng.create 99 in
      for _ = 1 to 60 do
        Sim.after (20. +. (Rng.float rng *. 400.)) (fun () -> ())
      done;
      Sim.delay 500.)

(* --- race-target digests across schedulers ------------------------- *)

let digest_target name tiebreak =
  let t = Race.find_target ~fast:true name in
  let reference = t.Race.run ~tiebreak ~sched:Sim.Binary_heap () in
  List.iter
    (fun sched ->
      Alcotest.(check string)
        (Printf.sprintf "%s [%s]: %s digest = heap digest" name
           (match tiebreak with Sim.Fifo -> "fifo" | _ -> "perturbed")
           (sched_name sched))
        reference
        (t.Race.run ~tiebreak ~sched ()))
    scheds

let test_ycsb_digests () =
  digest_target "ycsb-b-leed" Sim.Fifo;
  digest_target "ycsb-b-leed" (Sim.Perturbed 0xACE)

let test_chaos_digests () = digest_target "chaos" Sim.Fifo

let test_racy_bisection () =
  (* The racy fixture's digest depends on the tie-break, not on the
     scheduler: every Perturb_first limit must agree across all
     three. *)
  let t = Race.find_target ~fast:true "racy-demo" in
  List.iter
    (fun limit ->
      let tiebreak = Sim.Perturb_first { seed = 3; limit } in
      let reference = t.Race.run ~tiebreak ~sched:Sim.Binary_heap () in
      List.iter
        (fun sched ->
          Alcotest.(check string)
            (Printf.sprintf "racy-demo limit=%d: %s = heap" limit (sched_name sched))
            reference
            (t.Race.run ~tiebreak ~sched ()))
        scheds)
    [ 0; 1; 2; 4; 16; 256 ]

(* --- micro property: raw scheduler API agreement ------------------- *)

let prop_impls_agree =
  QCheck.Test.make ~name:"peek_time/pop agree across implementations" ~count:150
    QCheck.(list (pair (int_bound 20000) bool))
    (fun ops ->
      (* one store per structure: each links its handles through it *)
      let sh = Event_store.create () and sc = Event_store.create ()
      and sw = Event_store.create () in
      let h = Event_heap.create sh in
      let c = Calendar_queue.create sc in
      let w = Timing_wheel.create sw in
      let seq = ref 0 in
      let ok = ref true in
      let check_eq () =
        (* peek must agree bit-for-bit (infinity included)... *)
        let ph = Event_heap.peek_time h in
        if
          Int64.bits_of_float ph <> Int64.bits_of_float (Calendar_queue.peek_time c)
          || Int64.bits_of_float ph <> Int64.bits_of_float (Timing_wheel.peek_time w)
        then ok := false;
        if Event_heap.length h <> Calendar_queue.length c then ok := false;
        if Event_heap.length h <> Timing_wheel.length w then ok := false
      in
      let pop_all () =
        let eh = Event_heap.pop h in
        let ec = Calendar_queue.pop c in
        let ew = Timing_wheel.pop w in
        if eh = Event_store.nil then begin
          (* ...and emptiness must coincide. *)
          if ec <> Event_store.nil || ew <> Event_store.nil then ok := false
        end
        else begin
          if
            Event_store.seq sh eh <> Event_store.seq sc ec
            || Event_store.seq sh eh <> Event_store.seq sw ew
            || Int64.bits_of_float (Event_store.time sh eh)
               <> Int64.bits_of_float (Event_store.time sc ec)
          then ok := false;
          Event_store.release sh eh;
          Event_store.release sc ec;
          Event_store.release sw ew
        end
      in
      List.iter
        (fun (traw, is_add) ->
          if is_add then begin
            incr seq;
            (* burst-quantised, far-future and dense-near times, with a
               perturbed key on a subset *)
            let time =
              if traw mod 7 = 0 then float_of_int (traw mod 11) *. 1e-3
              else if traw mod 13 = 0 then 18. +. float_of_int traw
              else float_of_int traw *. 1e-4
            in
            let key = if traw land 1 = 0 then 0 else Rng.hash2 11 !seq in
            let mk st =
              let ev = Event_store.alloc st in
              Event_store.set st ev ~stamp:(Event_store.stamp_of_time time) ~key ~seq:!seq ~label:""
                ~run:ignore;
              ev
            in
            Event_heap.add h (mk sh);
            Calendar_queue.add c (mk sc);
            Timing_wheel.add w (mk sw)
          end
          else pop_all ();
          check_eq ())
        ops;
      (* drain everything, comparing the full remaining order *)
      while Event_heap.length h > 0 do
        pop_all ();
        check_eq ()
      done;
      pop_all ();
      !ok)

(* --- model property: schedule/cancel/pop against a sorted reference -- *)

(* Each scheduler, driven the way [Sim.run] drives it — stamps, keys
   and seqs set through the store, cancels as (handle, seq) tombstones,
   every popped handle released and so reused — must dispatch exactly
   the live events of an ordered-set reference, in its order. Times
   advance from the last dispatch like the engine's clock, and cover
   equal-time bursts (which also grow the store past its initial
   capacity with every handle live), the wheel's levels, its overflow
   heap beyond the w^3 horizon (~48 days) and the clamp of times past
   integer tick range. Keys follow the three tie-break policies. *)

module Ref = Set.Make (struct
  type t = int * int * int (* stamp, key, seq *)

  let compare = compare
end)

type op =
  | Add of int (* time class selector *)
  | Burst of int (* this many adds at one new instant *)
  | Cancel of int (* index into every (handle, seq) ever scheduled *)
  | Pop
  | Pop_until of int (* limit, in ms past the clock *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun r -> Add r) (int_bound 999_999));
        (1, map (fun n -> Burst n) (frequency [ (4, int_range 1 90); (1, int_range 300 700) ]));
        (3, map (fun i -> Cancel i) (int_bound 999_999));
        (4, return Pop);
        (2, map (fun l -> Pop_until l) (int_bound 20));
      ])

let op_print = function
  | Add r -> Printf.sprintf "Add %d" r
  | Burst n -> Printf.sprintf "Burst %d" n
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Pop -> "Pop"
  | Pop_until l -> Printf.sprintf "Pop_until %d" l

(* Offset from the clock for an [Add]: same instant, quantised (ties
   across adds), dense, heartbeat-scale (levels 1-2), beyond the
   horizon (overflow heap), and past int tick range (the clamp). *)
let delta_of r =
  match r mod 8 with
  | 0 -> 0.
  | 1 | 2 -> float_of_int (r mod 5) *. 1e-3
  | 3 | 4 -> float_of_int r *. 1e-9
  | 5 -> 0.05 +. (float_of_int r *. 4e-7)
  | 6 -> 4.3e6 +. float_of_int r
  | _ -> 1e12 +. float_of_int r

(* Sim's key policies, restated: Fifo, Perturbed, Perturb_first 40. *)
let key_of policy seq =
  match policy with
  | 0 -> 0
  | 1 -> Rng.hash2 0xBEEF seq
  | _ -> if seq <= 40 then Rng.hash2 0xBEEF seq else 0

let model_run kind policy ops =
  let st = Event_store.create () in
  let sched = Scheduler.create kind st in
  let live = ref Ref.empty and issued = ref [||] and n_issued = ref 0 in
  let seq = ref 0 and now = ref 0. and held = ref 0 and max_held = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_reportf "%s: %s" (Scheduler.name kind) s) fmt in
  let body () = () in
  let add time =
    incr seq;
    let h = Event_store.alloc st in
    incr held;
    max_held := max !max_held !held;
    let stamp = Event_store.stamp_of_time time and key = key_of policy !seq in
    Event_store.set st h ~stamp ~key ~seq:!seq ~label:"" ~run:body;
    Scheduler.add sched h;
    live := Ref.add (stamp, key, !seq) !live;
    if !n_issued = Array.length !issued then
      issued := Array.append !issued (Array.make (max 16 !n_issued) (0, 0));
    !issued.(!n_issued) <- (h, !seq);
    incr n_issued
  in
  (* Pop through tombstones like the engine's loop; check the first
     live handle against the reference minimum (if within [limit]). *)
  let rec dispatch limit =
    let h = Scheduler.pop_until sched (Event_store.stamp_of_time limit) in
    let expect = Ref.min_elt_opt !live in
    let expect =
      match expect with
      | Some (s, _, _) when Event_store.time_of_stamp s <= limit -> expect
      | _ -> None
    in
    if h = Event_store.nil then begin
      if expect <> None then fail "popped nothing, reference has a due event"
    end
    else if Event_store.run st h == Event_store.cancelled then begin
      Event_store.release st h;
      decr held;
      dispatch limit
    end
    else begin
      let got = (Event_store.stamp st h, Event_store.key st h, Event_store.seq st h) in
      if Some got <> expect then
        fail "popped seq %d, reference expects %s" (Event_store.seq st h)
          (match expect with Some (_, _, s) -> string_of_int s | None -> "nothing");
      live := Ref.remove got !live;
      now := Event_store.time st h;
      Event_store.release st h;
      decr held
    end
  in
  List.iter
    (function
      | Add r -> add (!now +. delta_of r)
      | Burst n ->
          let t = !now +. float_of_int (1 + (n mod 3)) *. 1e-3 in
          for _ = 1 to n do
            add t
          done
      | Cancel i ->
          let i = if !n_issued = 0 then -1 else i mod !n_issued in
          (* The engine cancels a handle at most once: skip repeats. *)
          if i >= 0 && snd !issued.(i) > 0 then begin
            let h, s = !issued.(i) in
            !issued.(i) <- (h, 0);
            (* Sim.cancel: the handle's seq decides; a stale handle
               (dispatched, maybe reused) must not match. *)
            let is_live = Ref.exists (fun (_, _, s') -> s' = s) !live in
            if Event_store.seq st h = s then begin
              if not is_live then fail "stale handle (seq %d) still matches" s;
              Event_store.cancel st h;
              live := Ref.filter (fun (_, _, s') -> s' <> s) !live
            end
            else if is_live then fail "live handle (seq %d) no longer matches" s
          end
      | Pop -> dispatch infinity
      | Pop_until l -> dispatch (!now +. (float_of_int l *. 1e-3)))
    ops;
  while not (Ref.is_empty !live) do
    dispatch infinity
  done;
  dispatch infinity;
  if Scheduler.length sched <> 0 then fail "%d handles left queued" (Scheduler.length sched);
  if !max_held > Event_store.chunk && Event_store.capacity st <= Event_store.chunk
  then fail "%d handles held at once, but the store never grew" !max_held;
  !max_held

let prop_model =
  QCheck.Test.make ~name:"schedule/cancel/pop match a sorted reference" ~count:120
    QCheck.(
      pair (int_bound 2)
        (make
           ~print:(fun ops -> String.concat "; " (List.map op_print ops))
           Gen.(list_size (int_range 0 250) op_gen)))
    (fun (policy, ops) ->
      List.iter (fun kind -> ignore (model_run kind policy ops)) Scheduler.kinds;
      true)

let test_model_growth () =
  (* Pinned case: growth while every old handle is live and queued
     (two bursts of tombstones and live events), for every policy. *)
  let ops =
    [ Burst 500; Add 7; Cancel 3; Burst 600; Cancel 700; Pop; Add 6; Pop_until 2; Burst 9; Cancel 1100 ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun policy ->
          Alcotest.(check bool)
            (Printf.sprintf "%s policy %d: outgrew the initial store" (Scheduler.name kind) policy)
            true
            (model_run kind policy ops > Event_store.chunk))
        [ 0; 1; 2 ])
    Scheduler.kinds

let () =
  Alcotest.run "sched"
    [
      ( "storm",
        [
          Alcotest.test_case "fifo logs identical" `Quick test_storm_fifo;
          Alcotest.test_case "perturbed logs identical" `Quick test_storm_perturbed;
          Alcotest.test_case "perturb_first logs identical" `Quick test_storm_perturb_first;
          Alcotest.test_case "heartbeat cascades" `Quick test_heartbeats;
          Alcotest.test_case "overflow refill" `Quick test_overflow_refill;
        ] );
      ( "digests",
        [
          Alcotest.test_case "ycsb digests identical" `Slow test_ycsb_digests;
          Alcotest.test_case "chaos digests identical" `Slow test_chaos_digests;
          Alcotest.test_case "racy bisection identical" `Slow test_racy_bisection;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_impls_agree;
          QCheck_alcotest.to_alcotest ~long:false prop_model;
          Alcotest.test_case "model: store growth with live handles" `Quick test_model_growth;
        ] );
    ]
