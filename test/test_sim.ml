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

(* --- Pooled fibers ---

   A process whose body returns parks its fiber, and the next spawn
   resumes that fiber with the new body. In each script below a process
   has returned (and the spawner has yielded past it) before the spawn
   under test, so that spawn runs on a reused fiber. *)

exception Boom

let test_pool_raise_reused () =
  let after_raise = ref false in
  (match
     Sim.run (fun () ->
         Sim.spawn (fun () -> ());
         Sim.yield ();
         Sim.spawn (fun () ->
             Sim.delay 0.5;
             raise Boom);
         Sim.spawn (fun () ->
             Sim.delay 1.;
             after_raise := true);
         Sim.delay 10.)
   with
   | () -> Alcotest.fail "the raising process should end the run"
   | exception Boom -> ());
  Alcotest.(check bool) "the run stopped at the raise" false !after_raise;
  Alcotest.check_raises "engine restored" (Failure "Sim: no simulation running (call inside Sim.run)")
    (fun () -> ignore (Sim.now ()));
  let log = ref [] in
  let t =
    Sim.run (fun () ->
        for i = 1 to 3 do
          Sim.spawn (fun () ->
              Sim.delay 1.;
              log := i :: !log);
          Sim.delay 2.
        done;
        Sim.now ())
  in
  check_float "next run's clock" 6. t;
  Alcotest.(check (list int)) "next run's processes" [ 1; 2; 3 ] (List.rev !log)

(* Not a tail call: every level is a stack frame. Delays at the bottom,
   so the suspended continuation carries the whole stack. *)
let rec deep n = if n = 0 then (Sim.delay 1.; 0) else 1 + deep (n - 1)

let test_pool_deep_recursion () =
  let depths =
    Sim.run (fun () ->
        let got = ref [] in
        Sim.spawn (fun () -> ());
        Sim.yield ();
        (* Twice: once on the reused small fiber, then again on the same
           fiber after it parked with its grown stack. *)
        for _ = 1 to 2 do
          Sim.spawn (fun () -> got := deep 150_000 :: !got);
          Sim.delay 2.
        done;
        !got)
  in
  Alcotest.(check (list int)) "depths" [ 150_000; 150_000 ] depths

(* Resident set size in KiB, where the OS reports it. *)
let rss_kib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmRSS"; v ] -> int_of_string_opt (List.hd (String.split_on_char ' ' (String.trim v)))
             | _ -> None)

let test_pool_closed_at_end () =
  (* Every run ends with 25 parked fibers grown to 4000 frames (tens of
     KiB each). A fiber that is never resumed keeps its stack, so runs
     that dropped their pool would grow the process by tens of MiB. *)
  let runs () =
    for _ = 1 to 40 do
      Sim.run (fun () ->
          for _ = 1 to 25 do
            Sim.spawn (fun () -> ignore (deep 4000))
          done;
          Sim.delay 5.)
    done;
    Gc.full_major ()
  in
  runs ();
  match rss_kib () with
  | None -> ()
  | Some before ->
      runs ();
      let grown = Option.value (rss_kib ()) ~default:before - before in
      if grown > 16 * 1024 then Alcotest.failf "resident set grew by %d KiB over 40 runs" grown

let labels = [| "alpha"; "beta"; "gamma" |]

(* Processes that respawn at their own instant under other labels, some
   unlabelled (inheriting), some after a delay. *)
let respawn_dispatch () =
  let log = ref [] in
  Sim.run
    ~on_dispatch:(fun (d : Sim.dispatch) -> log := (d.d_time, d.d_seq, d.d_label) :: !log)
    (fun () ->
      let rec proc gen i () =
        if gen < 3 then begin
          Sim.spawn ~label:labels.((i + gen + 1) mod 3) (proc (gen + 1) (i + 1));
          if i mod 2 = 0 then Sim.spawn (proc (gen + 1) (i + 2));
          Sim.delay 0.25;
          if gen mod 2 = 0 then Sim.spawn ~label:labels.(i mod 3) (proc (gen + 2) i)
        end
      in
      for i = 0 to 2 do
        Sim.spawn ~label:labels.(i) (proc 0 i)
      done;
      Sim.delay 2.);
  List.rev !log

(* Recorded from the engine before fibers were pooled: which fiber runs
   a process must not move any event's time, seq or label. *)
let expected_respawn_dispatch =
  let at t l = List.map (fun (seq, label) -> (t, seq, label)) l in
  at 0.
    [ (1, "main"); (2, "alpha"); (3, "beta"); (4, "gamma"); (6, "beta"); (7, "alpha"); (9, "gamma");
      (11, "alpha"); (12, "gamma"); (14, "alpha"); (16, "beta"); (17, "alpha"); (19, "beta");
      (20, "gamma"); (22, "gamma"); (24, "alpha"); (25, "gamma"); (27, "gamma"); (28, "alpha");
      (30, "alpha"); (32, "beta"); (33, "alpha"); (35, "alpha"); (37, "beta"); (38, "gamma");
      (40, "beta"); (41, "gamma"); (43, "gamma"); (45, "alpha"); (46, "gamma") ]
  @ at 0.25
      [ (8, "alpha"); (10, "beta"); (13, "gamma"); (15, "beta"); (18, "alpha"); (21, "gamma");
        (23, "alpha"); (26, "gamma"); (29, "alpha"); (31, "beta"); (34, "alpha"); (36, "beta");
        (39, "gamma"); (42, "gamma"); (44, "alpha"); (47, "gamma"); (48, "alpha"); (49, "beta");
        (50, "gamma"); (51, "gamma"); (52, "alpha"); (53, "beta"); (54, "alpha"); (55, "beta");
        (56, "beta"); (57, "gamma"); (58, "alpha"); (59, "alpha"); (60, "alpha"); (62, "beta");
        (64, "gamma"); (65, "gamma") ]
  @ at 0.5 [ (61, "alpha"); (63, "beta"); (66, "gamma"); (67, "alpha"); (68, "beta"); (69, "gamma") ]
  @ at 2. [ (5, "main") ]

let test_pool_dispatch_unchanged () =
  Alcotest.(check (list (triple (float 0.) int string)))
    "dispatch log" expected_respawn_dispatch (respawn_dispatch ())

let test_pool_spawn_count () =
  let spawned =
    Sim.run (fun () ->
        for _ = 1 to 5 do
          Sim.spawn (fun () -> ());
          Sim.yield ()
        done;
        Sim.processes_spawned ())
  in
  Alcotest.(check int) "every spawn counts, reused fiber or not" 5 spawned

let test_pool_nested_run () =
  let log = ref [] in
  let labels_seen = ref [] in
  let spawned =
    Sim.run
      ~on_dispatch:(fun (d : Sim.dispatch) -> labels_seen := d.d_label :: !labels_seen)
      (fun () ->
        Sim.spawn ~label:"warm" (fun () -> ());
        Sim.yield ();
        Sim.spawn ~label:"nester" (fun () ->
            (* A nested run on a reused fiber, with a pool of its own. *)
            let inner =
              Sim.run (fun () ->
                  for _ = 1 to 3 do
                    Sim.spawn (fun () -> Sim.delay 1.);
                    Sim.yield ()
                  done;
                  Sim.delay 2.;
                  Sim.processes_spawned ())
            in
            log := Printf.sprintf "inner spawned %d" inner :: !log);
        Sim.yield ();
        Sim.spawn ~label:"after1" (fun () -> log := "after1" :: !log);
        Sim.spawn ~label:"after2" (fun () ->
            Sim.delay 1.;
            log := "after2" :: !log);
        Sim.delay 5.;
        Sim.processes_spawned ())
  in
  Alcotest.(check (list string)) "bodies" [ "inner spawned 3"; "after1"; "after2" ] (List.rev !log);
  Alcotest.(check int) "outer spawns" 4 spawned;
  Alcotest.(check (list string)) "outer dispatch labels"
    [ "main"; "warm"; "main"; "nester"; "main"; "after1"; "after2"; "after2"; "main" ]
    (List.rev !labels_seen)

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

(* Known answers from the SplitMix64 stream: the state representation
   may change, the stream may not. Draws from [create 42], from one
   [split] of it, and from the parent after the split. *)
let rng_known_answers () =
  let check_draws what r ~i64 ~f ~n ~g =
    Alcotest.(check int64) (what ^ " next_int64") i64 (Rng.next_int64 r);
    Alcotest.(check (float 0.)) (what ^ " float") f (Rng.float r);
    Alcotest.(check int) (what ^ " int 1000") n (Rng.int r 1000);
    Alcotest.(check (float 0.)) (what ^ " normal") g (Rng.normal r ~mean:1. ~stddev:0.1)
  in
  let r = Rng.create 42 in
  check_draws "create 42" r ~i64:(-7450291807549245335L) ~f:0x1.486da5f92b86cp-3 ~n:285
    ~g:0x1.3e9fdaa313ba3p+0;
  let s = Rng.split r in
  check_draws "split" s ~i64:(-483495983935369787L) ~f:0x1.c3221cf2a8dc9p-1 ~n:510
    ~g:0x1.24180adc7370ap+0;
  check_draws "parent after split" r ~i64:5152897204343404489L ~f:0x1.392025051c93p-3 ~n:195
    ~g:0x1.03e6054fea161p+0;
  Alcotest.(check int) "hash2 42 7" 307822089938667211 (Rng.hash2 42 7);
  Alcotest.(check int) "hash2 7 123456" 1346820323948117519 (Rng.hash2 7 123456)

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
      ( "pool",
        [
          Alcotest.test_case "raise on a reused fiber" `Quick test_pool_raise_reused;
          Alcotest.test_case "deep recursion on a reused fiber" `Quick test_pool_deep_recursion;
          Alcotest.test_case "parked fibers freed at run end" `Quick test_pool_closed_at_end;
          Alcotest.test_case "respawn dispatch log unchanged" `Quick test_pool_dispatch_unchanged;
          Alcotest.test_case "spawn count includes reuse" `Quick test_pool_spawn_count;
          Alcotest.test_case "nested run keeps the outer pool" `Quick test_pool_nested_run;
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
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "known answers" `Quick rng_known_answers;
        ] );
    ]
