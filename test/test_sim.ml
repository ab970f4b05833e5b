(* Tests for the discrete-event simulation engine. *)

open Leed_sim

let check_float = Alcotest.(check (float 1e-9))

let test_run_returns () =
  let v = Sim.run (fun () -> 42) in
  Alcotest.(check int) "result" 42 v

let test_delay_advances_clock () =
  let t =
    Sim.run (fun () ->
        Sim.delay 1.5;
        Sim.delay 0.25;
        Sim.now ())
  in
  check_float "clock" 1.75 t

let test_zero_delay_keeps_time () =
  let t =
    Sim.run (fun () ->
        Sim.yield ();
        Sim.now ())
  in
  check_float "clock" 0.0 t

let test_spawn_ordering () =
  let log = ref [] in
  let push x = log := x :: !log in
  Sim.run (fun () ->
      Sim.spawn (fun () ->
          Sim.delay 2.;
          push "b");
      Sim.spawn (fun () ->
          Sim.delay 1.;
          push "a");
      Sim.delay 3.;
      push "main");
  Alcotest.(check (list string)) "order" [ "a"; "b"; "main" ] (List.rev !log)

let test_same_time_fifo () =
  (* Events at the same instant fire in scheduling order. *)
  let log = ref [] in
  Sim.run (fun () ->
      for i = 1 to 5 do
        Sim.spawn (fun () ->
            Sim.delay 1.;
            log := i :: !log)
      done;
      Sim.delay 2.);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock" (Sim.Deadlock "main process blocked forever at t=0 with 0 spawned processes")
    (fun () -> ignore (Sim.run (fun () -> Sim.suspend (fun _resume -> ()))))

let test_until_cuts_run () =
  match Sim.run ~until:1.0 (fun () -> Sim.delay 10.) with
  | () -> Alcotest.fail "should not complete"
  | exception Sim.Main_incomplete -> ()

let test_stop () =
  match
    Sim.run (fun () ->
        Sim.spawn (fun () ->
            Sim.delay 1.;
            Sim.stop ());
        Sim.delay 100.)
  with
  | () -> Alcotest.fail "should not complete"
  | exception Sim.Main_incomplete -> ()

let test_nested_runs () =
  let v =
    Sim.run (fun () ->
        Sim.delay 5.;
        let inner = Sim.run (fun () -> Sim.delay 1.; Sim.now ()) in
        (* Outer clock is restored and unaffected by the inner run. *)
        (inner, Sim.now ()))
  in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "clocks" (1., 5.) v

(* --- Ivar --- *)

let test_ivar_read_blocks () =
  let t =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        Sim.spawn (fun () ->
            Sim.delay 2.;
            Sim.Ivar.fill iv 99);
        let v = Sim.Ivar.read iv in
        (v, Sim.now ()))
  in
  Alcotest.(check (pair int (float 1e-9))) "value and time" (99, 2.) t

let test_ivar_double_fill_raises () =
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      Sim.Ivar.fill iv 1;
      (match Sim.Ivar.fill iv 2 with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "try_fill" false (Sim.Ivar.try_fill iv 3))

let test_ivar_timeout_expires () =
  let r =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        Sim.Ivar.read_timeout iv 1.0)
  in
  Alcotest.(check (option int)) "timed out" None r

let test_ivar_timeout_wins () =
  let r =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        Sim.spawn (fun () ->
            Sim.delay 0.5;
            Sim.Ivar.fill iv 7);
        Sim.Ivar.read_timeout iv 1.0)
  in
  Alcotest.(check (option int)) "value" (Some 7) r

(* --- Cancelled timeouts ---

   A timeout that loses its race is cancelled in place: it must leave no
   pending event and never be dispatched, whatever scheduler drives the
   run. Each test runs under every [Sim.sched]. *)

let for_each_sched f =
  List.iter (fun sched -> f ~what:(Scheduler.name sched) sched) Scheduler.kinds

(* Events dispatched while [f] runs, [f]'s own wake-ups included. *)
let dispatched_during f =
  let d0 = Sim.events_dispatched () in
  f ();
  Sim.events_dispatched () - d0

let test_ivar_timeout_cancelled () =
  for_each_sched (fun ~what sched ->
      let r, depth, idle =
        Sim.run ~sched (fun () ->
            let iv = Sim.Ivar.create () in
            Sim.spawn (fun () ->
                Sim.delay 0.5;
                Sim.Ivar.fill iv 7);
            let r = Sim.Ivar.read_timeout iv 1.0 in
            let depth = Sim.heap_depth () in
            (* Sleeping past the dead timer's time dispatches only the
               sleep's own wake-up. *)
            (r, depth, dispatched_during (fun () -> Sim.delay 2.)))
      in
      Alcotest.(check (option int)) (what ^ ": value") (Some 7) r;
      Alcotest.(check int) (what ^ ": nothing pending") 0 depth;
      Alcotest.(check int) (what ^ ": timer never dispatched") 1 idle)

let test_mailbox_timeout_cancelled () =
  for_each_sched (fun ~what sched ->
      let r, depth, idle =
        Sim.run ~sched (fun () ->
            let mb = Sim.Mailbox.create () in
            Sim.spawn (fun () ->
                Sim.delay 0.5;
                Sim.Mailbox.send mb 7);
            let r = Sim.Mailbox.recv_timeout mb 1.0 in
            let depth = Sim.heap_depth () in
            (r, depth, dispatched_during (fun () -> Sim.delay 2.)))
      in
      Alcotest.(check (option int)) (what ^ ": value") (Some 7) r;
      Alcotest.(check int) (what ^ ": nothing pending") 0 depth;
      Alcotest.(check int) (what ^ ": timer never dispatched") 1 idle)

let test_ivar_late_fill_noop () =
  (* The timeout wins; its cell is recycled at once (the wake-up and the
     unrelated timer below reuse the freelist head). The late fill's
     cancel must not touch whatever event now occupies the cell. *)
  for_each_sched (fun ~what sched ->
      let r, depth, fired =
        Sim.run ~sched (fun () ->
            let iv = Sim.Ivar.create () in
            let r = Sim.Ivar.read_timeout iv 1.0 in
            let fired = ref false in
            Sim.after 5. (fun () -> fired := true);
            Sim.Ivar.fill iv 7;
            let depth = Sim.heap_depth () in
            Sim.delay 10.;
            (r, depth, !fired))
      in
      Alcotest.(check (option int)) (what ^ ": timed out") None r;
      Alcotest.(check int) (what ^ ": unrelated event still pending") 1 depth;
      Alcotest.(check bool) (what ^ ": unrelated event fired") true fired)

let test_mailbox_late_send_noop () =
  for_each_sched (fun ~what sched ->
      let r, depth, fired, queued =
        Sim.run ~sched (fun () ->
            let mb = Sim.Mailbox.create () in
            let r = Sim.Mailbox.recv_timeout mb 1.0 in
            let fired = ref false in
            Sim.after 5. (fun () -> fired := true);
            Sim.Mailbox.send mb 7;
            let depth = Sim.heap_depth () in
            Sim.delay 10.;
            (r, depth, !fired, Sim.Mailbox.try_recv mb))
      in
      Alcotest.(check (option int)) (what ^ ": timed out") None r;
      Alcotest.(check int) (what ^ ": unrelated event still pending") 1 depth;
      Alcotest.(check bool) (what ^ ": unrelated event fired") true fired;
      Alcotest.(check (option int)) (what ^ ": late send queued") (Some 7) queued)

let test_nested_cancel_engine () =
  (* A nested run fills an outer Ivar: the cancel must settle the outer
     engine's books, not the inner one's. *)
  for_each_sched (fun ~what sched ->
      let r, inner_depth, depth, idle =
        Sim.run ~sched (fun () ->
            let iv = Sim.Ivar.create () in
            let inner_depth = ref (-1) in
            Sim.spawn (fun () ->
                Sim.delay 0.5;
                inner_depth :=
                  Sim.run ~sched (fun () ->
                      Sim.Ivar.fill iv 7;
                      Sim.heap_depth ()));
            let r = Sim.Ivar.read_timeout iv 1.0 in
            let depth = Sim.heap_depth () in
            (r, !inner_depth, depth, dispatched_during (fun () -> Sim.delay 2.)))
      in
      Alcotest.(check (option int)) (what ^ ": value") (Some 7) r;
      Alcotest.(check int) (what ^ ": inner engine untouched") 0 inner_depth;
      Alcotest.(check int) (what ^ ": outer nothing pending") 0 depth;
      Alcotest.(check int) (what ^ ": outer timer never dispatched") 1 idle)

let test_stale_handle_reused () =
  (* The timeout wins, so its handle is released; then more events are
     armed than the store had handles, which forces every old handle —
     the dead timer's included — back into use (the store only grows
     once its freelist is empty). The late fill's cancel carries the
     dead timer's (handle, seq): it must match none of the live events,
     neither in this engine nor, when the fill runs inside a nested run,
     in the nested engine's own store. *)
  let n = Event_store.chunk + 1 in
  for_each_sched (fun ~what sched ->
      List.iter
        (fun nested ->
          let what = Printf.sprintf "%s%s" what (if nested then " nested" else "") in
          let r, depth, fired, inner =
            Sim.run ~sched (fun () ->
                let iv = Sim.Ivar.create () in
                let r = Sim.Ivar.read_timeout iv 1.0 in
                let fired = ref 0 in
                for i = 1 to n do
                  Sim.after (float_of_int i) (fun () -> incr fired)
                done;
                let inner =
                  if nested then
                    Sim.run ~sched (fun () ->
                        let inner_fired = ref 0 in
                        for i = 1 to n do
                          Sim.after (float_of_int i) (fun () -> incr inner_fired)
                        done;
                        Sim.Ivar.fill iv 7;
                        let depth = Sim.heap_depth () in
                        Sim.delay (float_of_int (n + 1));
                        (depth, !inner_fired))
                  else begin
                    Sim.Ivar.fill iv 7;
                    (n, n)
                  end
                in
                let depth = Sim.heap_depth () in
                Sim.delay (float_of_int (n + 1));
                (r, depth, !fired, inner))
          in
          Alcotest.(check (option int)) (what ^ ": timed out") None r;
          Alcotest.(check int) (what ^ ": every armed event still pending") n depth;
          Alcotest.(check int) (what ^ ": every armed event fired") n fired;
          Alcotest.(check (pair int int)) (what ^ ": nested engine untouched") (n, n) inner)
        [ false; true ])

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  let r =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        Sim.Mailbox.send mb 1;
        Sim.Mailbox.send mb 2;
        Sim.Mailbox.send mb 3;
        let a = Sim.Mailbox.recv mb in
        let b = Sim.Mailbox.recv mb in
        let c = Sim.Mailbox.recv mb in
        [ a; b; c ])
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] r

let test_mailbox_blocking_recv () =
  let r =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        Sim.spawn (fun () ->
            Sim.delay 3.;
            Sim.Mailbox.send mb "hello");
        let v = Sim.Mailbox.recv mb in
        (v, Sim.now ()))
  in
  Alcotest.(check (pair string (float 1e-9))) "recv" ("hello", 3.) r

let test_mailbox_timeout_then_send_not_lost () =
  (* After a receive times out, a subsequent send must not be swallowed by
     the dead waiter. *)
  let r =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        let first = Sim.Mailbox.recv_timeout mb 1.0 in
        Sim.spawn (fun () ->
            Sim.delay 1.;
            Sim.Mailbox.send mb 5);
        let second = Sim.Mailbox.recv mb in
        (first, second))
  in
  Alcotest.(check (pair (option int) int)) "no loss" (None, 5) r

let test_mailbox_two_receivers_order () =
  let log = ref [] in
  Sim.run (fun () ->
      let mb = Sim.Mailbox.create () in
      Sim.spawn (fun () ->
          let v = Sim.Mailbox.recv mb in
          log := ("r1", v) :: !log);
      Sim.spawn (fun () ->
          let v = Sim.Mailbox.recv mb in
          log := ("r2", v) :: !log);
      Sim.delay 1.;
      Sim.Mailbox.send mb 10;
      Sim.Mailbox.send mb 20;
      Sim.delay 1.);
  Alcotest.(check (list (pair string int)))
    "oldest waiter first"
    [ ("r1", 10); ("r2", 20) ]
    (List.rev !log)

(* --- Resource --- *)

let test_resource_serialises () =
  (* Capacity 1: three 1-second jobs take 3 seconds. *)
  let t =
    Sim.run (fun () ->
        let r = Sim.Resource.create ~capacity:1 () in
        let job () = Sim.Resource.with_ r (fun () -> Sim.delay 1.) in
        Sim.fork_join [ job; job; job ];
        Sim.now ())
  in
  check_float "makespan" 3.0 t

let test_resource_parallelism () =
  let t =
    Sim.run (fun () ->
        let r = Sim.Resource.create ~capacity:3 () in
        let job () = Sim.Resource.with_ r (fun () -> Sim.delay 1.) in
        Sim.fork_join [ job; job; job ];
        Sim.now ())
  in
  check_float "makespan" 1.0 t

let test_resource_fifo_admission () =
  let log = ref [] in
  Sim.run (fun () ->
      let r = Sim.Resource.create ~capacity:1 () in
      Sim.Resource.acquire r;
      for i = 1 to 4 do
        Sim.spawn (fun () ->
            Sim.Resource.acquire r;
            log := i :: !log;
            Sim.delay 0.1;
            Sim.Resource.release r)
      done;
      Sim.delay 1.;
      Sim.Resource.release r;
      Sim.delay 10.);
  Alcotest.(check (list int)) "admission order" [ 1; 2; 3; 4 ] (List.rev !log)

let test_resource_counts () =
  Sim.run (fun () ->
      let r = Sim.Resource.create ~capacity:2 () in
      Sim.Resource.acquire r;
      Sim.Resource.acquire r;
      Sim.spawn (fun () -> Sim.Resource.acquire r);
      Sim.yield ();
      Alcotest.(check int) "in_use" 2 (Sim.Resource.in_use r);
      Alcotest.(check int) "waiting" 1 (Sim.Resource.waiting r);
      Sim.Resource.release r;
      Sim.yield ();
      Alcotest.(check int) "waiting after release" 0 (Sim.Resource.waiting r))

let test_resource_utilisation () =
  let u =
    Sim.run (fun () ->
        let r = Sim.Resource.create ~capacity:2 () in
        Sim.Resource.with_ r (fun () -> Sim.delay 1.);
        Sim.delay 1.;
        Sim.Resource.utilisation r)
  in
  (* 1 unit busy for 1s out of capacity 2 over 2s = 0.25 *)
  check_float "utilisation" 0.25 u

let test_fork_join_empty () = Sim.run (fun () -> Sim.fork_join [])

let test_every () =
  let count = ref 0 in
  (match
     Sim.run (fun () ->
         Sim.every ~period:1.0 (fun () ->
             incr count;
             !count < 5);
         Sim.delay 100.)
   with
  | () -> ()
  | exception _ -> ());
  Alcotest.(check int) "ticks" 5 !count

(* --- Event heap property tests --- *)

let heap_sorts =
  QCheck.Test.make ~name:"event heap pops in (time, seq) order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let st = Event_store.create () in
      let h = Event_heap.create st in
      List.iteri
        (fun i t ->
          let ev = Event_store.alloc st in
          Event_store.set st ev ~stamp:(Event_store.stamp_of_time t) ~key:0 ~seq:i ~label:""
            ~run:ignore;
          Event_heap.add h ev)
        times;
      let rec drain acc =
        let e = Event_heap.pop h in
        if e = Event_store.nil then List.rev acc
        else drain ((Event_store.time st e, Event_store.seq st e) :: acc)
      in
      let out = drain [] in
      let sorted = List.sort compare out in
      out = sorted && List.length out = List.length times)

let rng_uniform_range =
  QCheck.Test.make ~name:"rng float stays in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let f = Rng.float rng in
        if f < 0. || f >= 1. then ok := false
      done;
      !ok)

let rng_int_range =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let rng_split_independent =
  QCheck.Test.make ~name:"rng split streams differ from parent" ~count:100 QCheck.small_int
    (fun seed ->
      let a = Rng.create seed in
      let b = Rng.split a in
      Rng.next_int64 a <> Rng.next_int64 b)

let rng_deterministic () =
  let a = Rng.create 1234 and b = Rng.create 1234 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let sim_deterministic () =
  (* Two identical runs produce identical event interleavings. *)
  let trace () =
    let log = ref [] in
    Sim.run (fun () ->
        let rng = Rng.create 7 in
        let r = Sim.Resource.create ~capacity:2 () in
        for i = 1 to 20 do
          Sim.spawn (fun () ->
              Sim.delay (Rng.float rng);
              Sim.Resource.with_ r (fun () ->
                  Sim.delay (Rng.float rng);
                  log := (i, Sim.now ()) :: !log))
        done;
        Sim.delay 100.);
    !log
  in
  let t1 = trace () and t2 = trace () in
  Alcotest.(check bool) "identical traces" true (t1 = t2)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "run returns" `Quick test_run_returns;
          Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
          Alcotest.test_case "zero delay keeps time" `Quick test_zero_delay_keeps_time;
          Alcotest.test_case "spawn ordering" `Quick test_spawn_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "until cuts run" `Quick test_until_cuts_run;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "nested runs" `Quick test_nested_runs;
          Alcotest.test_case "deterministic interleaving" `Quick sim_deterministic;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "read blocks until fill" `Quick test_ivar_read_blocks;
          Alcotest.test_case "double fill raises" `Quick test_ivar_double_fill_raises;
          Alcotest.test_case "timeout expires" `Quick test_ivar_timeout_expires;
          Alcotest.test_case "fill beats timeout" `Quick test_ivar_timeout_wins;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "ivar fill cancels timer" `Quick test_ivar_timeout_cancelled;
          Alcotest.test_case "mailbox send cancels timer" `Quick test_mailbox_timeout_cancelled;
          Alcotest.test_case "late fill is a no-op" `Quick test_ivar_late_fill_noop;
          Alcotest.test_case "late send is a no-op" `Quick test_mailbox_late_send_noop;
          Alcotest.test_case "nested run cancels on its engine" `Quick test_nested_cancel_engine;
          Alcotest.test_case "stale handle after reuse" `Quick test_stale_handle_reused;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "timeout does not lose sends" `Quick test_mailbox_timeout_then_send_not_lost;
          Alcotest.test_case "two receivers ordered" `Quick test_mailbox_two_receivers_order;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialises" `Quick test_resource_serialises;
          Alcotest.test_case "parallelism" `Quick test_resource_parallelism;
          Alcotest.test_case "fifo admission" `Quick test_resource_fifo_admission;
          Alcotest.test_case "counts" `Quick test_resource_counts;
          Alcotest.test_case "utilisation" `Quick test_resource_utilisation;
          Alcotest.test_case "fork_join empty" `Quick test_fork_join_empty;
          Alcotest.test_case "every" `Quick test_every;
        ] );
      qsuite "properties" [ heap_sorts; rng_uniform_range; rng_int_range; rng_split_independent ];
      ("rng", [ Alcotest.test_case "deterministic" `Quick rng_deterministic ]);
    ]
