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
      let h = Event_heap.create () in
      let c = Calendar_queue.create () in
      let w = Timing_wheel.create () in
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
        if eh == Sched_event.nil then begin
          (* ...and emptiness must coincide. *)
          if ec != Sched_event.nil || ew != Sched_event.nil then ok := false
        end
        else if
          eh.Sched_event.seq <> ec.Sched_event.seq
          || eh.Sched_event.seq <> ew.Sched_event.seq
          || Int64.bits_of_float (Sched_event.time eh)
             <> Int64.bits_of_float (Sched_event.time ec)
        then ok := false
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
            let mk () =
              let ev = Sched_event.make () in
              Sched_event.set_time ev time;
              ev.Sched_event.key <- key;
              ev.Sched_event.seq <- !seq;
              ev
            in
            Event_heap.add h (mk ());
            Calendar_queue.add c (mk ());
            Timing_wheel.add w (mk ())
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
        [ QCheck_alcotest.to_alcotest ~long:false prop_impls_agree ] );
    ]
