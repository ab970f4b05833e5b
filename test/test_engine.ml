(* Tests for the intra-JBOF I/O engine: token scheduling, adaptive
   capacity, and the data-swapping mechanism. *)

open Leed_sim
open Leed_core
open Leed_platform

let key = Leed_workload.Workload.key_of_id

let small_store_config =
  { Store.default_config with Store.nsegments = 512; compaction_window = 64 * 1024 }

let test_platform = { Platform.smartnic_jbof with Platform.ssd = { Platform.smartnic_jbof.Platform.ssd with Leed_blockdev.Blockdev.jitter = 0. } }

let small_config = { Engine.default_config with Engine.store_config = small_store_config }

let make_engine ?(config = small_config) () =
  let e = Engine.create ~config test_platform in
  Engine.start e;
  e

let test_basic_ops () =
  Sim.run (fun () ->
      let e = make_engine () in
      (match Engine.submit e ~pid:0 (Engine.Put (key 1, Bytes.of_string "v1")) with
      | Ok () -> ()
      | _ -> Alcotest.fail "put should be Done");
      (match Engine.submit e ~pid:0 (Engine.Get (key 1)) with
      | Ok (Some v) -> Alcotest.(check string) "value" "v1" (Bytes.to_string v)
      | _ -> Alcotest.fail "expected Found");
      (match Engine.submit e ~pid:0 (Engine.Get (key 2)) with
      | Ok None -> ()
      | _ -> Alcotest.fail "expected Missing");
      (match Engine.submit e ~pid:0 (Engine.Del (key 1)) with
      | Ok () -> ()
      | _ -> Alcotest.fail "del should be Done");
      match Engine.submit e ~pid:0 (Engine.Get (key 1)) with
      | Ok None -> ()
      | _ -> Alcotest.fail "expected Missing after del")

let test_partitions_isolated () =
  Sim.run (fun () ->
      let e = make_engine () in
      Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key 1, Bytes.of_string "p0")));
      Result.get_ok (Engine.submit e ~pid:1 (Engine.Put (key 1, Bytes.of_string "p1")));
      (match Engine.submit e ~pid:0 (Engine.Get (key 1)) with
      | Ok (Some v) -> Alcotest.(check string) "p0 value" "p0" (Bytes.to_string v)
      | _ -> Alcotest.fail "p0 missing");
      match Engine.submit e ~pid:1 (Engine.Get (key 1)) with
      | Ok (Some v) -> Alcotest.(check string) "p1 value" "p1" (Bytes.to_string v)
      | _ -> Alcotest.fail "p1 missing")

let test_token_cost () =
  Alcotest.(check int) "get" 2 (Engine.token_cost (Engine.Get "k"));
  Alcotest.(check int) "put" 3 (Engine.token_cost (Engine.Put ("k", Bytes.create 1)));
  Alcotest.(check int) "del" 2 (Engine.token_cost (Engine.Del "k"))

let test_concurrent_load_completes () =
  Sim.run (fun () ->
      let e = make_engine () in
      (* Preload. *)
      for i = 0 to 63 do
        Result.get_ok (Engine.submit e ~pid:(i mod Engine.npartitions e) (Engine.Put (key i, Bytes.of_string "x")))
      done;
      let done_count = ref 0 in
      Sim.fork_join
        (List.init 200 (fun i () ->
             let pid = i mod Engine.npartitions e in
             match Engine.submit e ~pid (Engine.Get (key (i mod 64))) with
             | Ok _ -> incr done_count
             | Error _ -> ()));
      Alcotest.(check int) "all completed" 200 !done_count)

let test_available_tokens_drop_under_load () =
  Sim.run (fun () ->
      let e = make_engine () in
      let p = Engine.partition e 0 in
      let idle = Engine.available_tokens p in
      Alcotest.(check bool) "idle positive" true (idle > 0);
      (* Saturate partition 0's SSD. *)
      for i = 0 to 63 do
        Sim.spawn (fun () -> Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key i, Bytes.make 4096 'x'))))
      done;
      Sim.delay (Sim.us 30.);
      let busy = Engine.available_tokens p in
      Alcotest.(check bool)
        (Printf.sprintf "busy %d < idle %d" busy idle)
        true (busy < idle);
      Sim.delay 1.0)

(* --- where commands run --- *)

(* An admitted command runs on its submitter's fiber: nothing is spawned
   for it, and the events it dispatches are its own device and core
   waits. *)
let test_uncontended_runs_inline () =
  Sim.run (fun () ->
      let e = make_engine () in
      Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key 1, Bytes.of_string "v1")));
      let spawned = Sim.processes_spawned () and events = Sim.events_dispatched () in
      (match Engine.submit e ~pid:0 (Engine.Get (key 1)) with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "expected Found");
      Alcotest.(check int) "spawns" 0 (Sim.processes_spawned () - spawned);
      (* its two flash reads and three core charges *)
      Alcotest.(check int) "events" 5 (Sim.events_dispatched () - events))

(* Tokens for one PUT at a time, so queued commands launch one by one and
   never share the device or the core. *)
let serial_config = { small_config with Engine.token_min = 3; token_max = 3; swap_enabled = false }

(* A command queued behind three others is woken once, by the [admit]
   that launches it, not at each completion before its turn: its fiber
   dispatches exactly one event more than the same GET run uncontended. *)
let test_queued_resumed_once () =
  let late = ref 0 in
  Sim.run
    ~on_dispatch:(fun d -> if d.Sim.d_label = "late" then incr late)
    (fun () ->
      let e = make_engine ~config:serial_config () in
      Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key 0, Bytes.of_string "v0")));
      let get () =
        let before = !late in
        (match Engine.submit e ~pid:0 (Engine.Get (key 0)) with
        | Ok (Some _) -> ()
        | _ -> Alcotest.fail "expected Found");
        !late - before
      in
      let queued = ref 0 and alone = ref 0 in
      Sim.fork_join_named
        (List.init 3 (fun i ->
             ( None,
               fun () ->
                 Result.get_ok
                   (Engine.submit e ~pid:0 (Engine.Put (key (i + 1), Bytes.make 4096 'x'))) ))
        @ [
            ( Some "late",
              fun () ->
                queued := get ();
                alone := get () );
          ]);
      let s0 = Engine.ssd_stats (Engine.ssds e).(0) in
      Alcotest.(check int) "deferred: two puts and the get" 3 s0.Engine.deferred;
      Alcotest.(check int) "one resume" 1 (!queued - !alone))

(* Submitter fibers labelled by their partition and rank, e.g. "a2". *)
let labelled_gets e ~pid tag =
  for i = 1 to 3 do
    Sim.spawn ~label:(Printf.sprintf "%s%d" tag i) (fun () ->
        ignore (Engine.submit e ~pid (Engine.Get (key i))))
  done

(* Nothing runs before [start]; then one admission pass launches what
   waited, round-robin across the SSD's partitions and FCFS within each,
   and each launched submitter resumes in that order. *)
let test_start_admits_round_robin () =
  let ours l = String.length l = 2 && (l.[0] = 'a' || l.[0] = 'b') in
  let started = ref false and order = ref [] in
  Sim.run
    ~on_dispatch:(fun d ->
      let l = d.Sim.d_label in
      if !started && ours l && not (List.mem l !order) then order := l :: !order)
    (fun () ->
      let e = Engine.create ~config:small_config test_platform in
      (* partitions 0 and [ssd_count] share SSD 0 *)
      labelled_gets e ~pid:0 "a";
      labelled_gets e ~pid:test_platform.Platform.ssd_count "b";
      Sim.delay (Sim.ms 1.);
      let s0 = (Engine.ssds e).(0) in
      Alcotest.(check int) "nothing ran before start" 0 (Engine.ssd_stats s0).Engine.executed;
      started := true;
      Engine.start e;
      Sim.delay (Sim.ms 1.);
      Alcotest.(check int) "all ran after start" 6 (Engine.ssd_stats s0).Engine.executed);
  Alcotest.(check (list string))
    "launch order" [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ] (List.rev !order)

(* A command submitted before [start] waits for it even though its
   tokens fit at once. *)
let test_submit_before_start_waits () =
  Sim.run (fun () ->
      let e = Engine.create ~config:small_config test_platform in
      let done_at = ref None in
      Sim.spawn (fun () ->
          Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key 1, Bytes.of_string "v1")));
          done_at := Some (Sim.now ()));
      Sim.delay (Sim.ms 1.);
      Alcotest.(check bool) "not run before start" true (!done_at = None);
      Alcotest.(check int) "still queued" 1 (Engine.waiting_depth (Engine.partition e 0));
      let started_at = Sim.now () in
      Engine.start e;
      Sim.delay (Sim.ms 1.);
      match !done_at with
      | Some t -> Alcotest.(check bool) "ran after start" true (t > started_at)
      | None -> Alcotest.fail "never ran")

(* A command that raises (here the store refusing an empty value) gives
   its tokens back on the way out, and the sanitizer's token ledger stays
   balanced for the commands after it. *)
let test_raising_command_releases_tokens () =
  Sim.run ~checks:true (fun () ->
      let e = make_engine () in
      let s0 = (Engine.ssds e).(0) in
      (match Engine.submit e ~pid:0 (Engine.Put (key 1, Bytes.empty)) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "an empty value must raise");
      Alcotest.(check int) "tokens released" 0 (Engine.active_tokens s0);
      Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key 1, Bytes.of_string "v1")));
      match Engine.submit e ~pid:0 (Engine.Get (key 1)) with
      | Ok (Some v) -> Alcotest.(check string) "value" "v1" (Bytes.to_string v)
      | _ -> Alcotest.fail "expected Found")

let test_swap_redirects_overloaded_puts () =
  Sim.run (fun () ->
      let config =
        { Engine.default_config with Engine.store_config = small_store_config; swap_threshold = 8 }
      in
      let e = Engine.create ~config test_platform in
      Engine.start e;
      (* Hammer partition 0 (SSD 0) with writes; SSDs 1-3 stay idle, so the
         gap opens and swaps must trigger. *)
      Sim.fork_join
        (List.init 400 (fun i () ->
             Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key (i mod 50), Bytes.make 1024 'x')))));
      let s0 = Engine.ssd_stats (Engine.ssds e).(0) in
      Alcotest.(check bool)
        (Printf.sprintf "swapped_out %d > 0" s0.Engine.swapped_out)
        true
        (s0.Engine.swapped_out > 0);
      (* Every key must still be readable (possibly from the swap region). *)
      for i = 0 to 49 do
        match Engine.submit e ~pid:0 (Engine.Get (key i)) with
        | Ok (Some _) -> ()
        | _ -> Alcotest.failf "key %d unreadable after swapping" i
      done)

let test_swap_disabled_never_swaps () =
  Sim.run (fun () ->
      let config =
        { Engine.default_config with Engine.store_config = small_store_config; swap_enabled = false }
      in
      let e = Engine.create ~config test_platform in
      Engine.start e;
      Sim.fork_join
        (List.init 200 (fun i () ->
             Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key (i mod 20), Bytes.make 1024 'x')))));
      let s0 = Engine.ssd_stats (Engine.ssds e).(0) in
      Alcotest.(check int) "no swaps" 0 s0.Engine.swapped_out)

let test_swap_merges_back () =
  Sim.run (fun () ->
      let config =
        { Engine.default_config with Engine.store_config = small_store_config; swap_threshold = 6 }
      in
      let e = Engine.create ~config test_platform in
      Engine.start e;
      Sim.fork_join
        (List.init 300 (fun i () ->
             Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key (i mod 30), Bytes.make 512 'x')))));
      let st = Engine.store (Engine.partition e 0) in
      (* Give the background compactor time to merge the swap region home
         and the engine to reset the swap logs. *)
      Sim.delay 2.0;
      Alcotest.(check (list int)) "no segments remain swapped" [] (Segtbl.swapped_out (Store.segtbl st));
      (* Values all intact after merge-back. *)
      for i = 0 to 29 do
        match Engine.submit e ~pid:0 (Engine.Get (key i)) with
        | Ok (Some _) -> ()
        | _ -> Alcotest.failf "key %d lost after merge-back" i
      done)

let test_adaptive_capacity_shrinks () =
  Sim.run (fun () ->
      let e = make_engine () in
      let s = (Engine.ssds e).(0) in
      let initial = (Engine.ssd_stats s).Engine.capacity in
      (* Large values inflate per-IO service time, so capacity must drop. *)
      Sim.fork_join
        (List.init 100 (fun i () ->
             Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key i, Bytes.make 262144 'x')))));
      let adapted = (Engine.ssd_stats s).Engine.capacity in
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d < initial %d" adapted initial)
        true (adapted < initial))

let test_overload_rejects () =
  Sim.run (fun () ->
      let config =
        {
          Engine.default_config with
          Engine.store_config = small_store_config;
          waiting_cap = 4;
          swap_enabled = false;
        }
      in
      let e = Engine.create ~config test_platform in
      Engine.start e;
      let rejected = ref 0 in
      for i = 0 to 199 do
        Sim.spawn (fun () ->
            match Engine.submit e ~pid:0 (Engine.Put (key i, Bytes.make 4096 'x')) with
            | Error Engine.Overloaded -> incr rejected
            | Ok () | Error (Engine.Failed | Engine.Corrupt | Engine.Shed) -> ())
      done;
      Sim.delay 1.0;
      Alcotest.(check bool) (Printf.sprintf "%d rejected" !rejected) true (!rejected > 0))

let () =
  Alcotest.run "leed_engine"
    [
      ( "engine",
        [
          Alcotest.test_case "basic ops" `Quick test_basic_ops;
          Alcotest.test_case "partitions isolated" `Quick test_partitions_isolated;
          Alcotest.test_case "token costs" `Quick test_token_cost;
          Alcotest.test_case "concurrent load completes" `Quick test_concurrent_load_completes;
          Alcotest.test_case "available tokens drop under load" `Quick test_available_tokens_drop_under_load;
        ] );
      ( "admission",
        [
          Alcotest.test_case "uncontended command runs inline" `Quick test_uncontended_runs_inline;
          Alcotest.test_case "queued command is resumed once" `Quick test_queued_resumed_once;
          Alcotest.test_case "start admits round-robin, FCFS per partition" `Quick
            test_start_admits_round_robin;
          Alcotest.test_case "submit before start waits for it" `Quick test_submit_before_start_waits;
          Alcotest.test_case "raising command releases its tokens" `Quick
            test_raising_command_releases_tokens;
        ] );
      ( "swap",
        [
          Alcotest.test_case "redirects overloaded puts" `Quick test_swap_redirects_overloaded_puts;
          Alcotest.test_case "disabled never swaps" `Quick test_swap_disabled_never_swaps;
          Alcotest.test_case "merges back" `Quick test_swap_merges_back;
        ] );
      ( "adaptivity",
        [
          Alcotest.test_case "capacity shrinks under slow IO" `Quick test_adaptive_capacity_shrinks;
          Alcotest.test_case "overload rejects" `Quick test_overload_rejects;
        ] );
    ]
