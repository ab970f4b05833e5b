(* Conformance suite for the KV_BACKEND service boundary: every system
   (LEED, FAWN, KVell) must behave identically when driven purely through
   Backend.t — get-after-put, overwrite and delete visibility, replicated
   object accounting, live observability counters, and bit-deterministic
   metrics when the same seeded workload replays in a fresh simulation.
   Also the named-counter registry itself: unique names, baselines a
   subset of LEED, window diffs, and the chaos digest's names. *)

open Leed_sim
open Leed_core
open Leed_workload
open Leed_experiments

let key = Workload.key_of_id
let nkeys = 60
let ndel = 10
let vsize = 240

(* Small instances of each system: correctness, not statistics. All are
   built with R=3, so accounting must show 3 copies per live key. *)
let small_setup = function
  | "leed" -> Exp_common.make_leed ~nclients:2 ()
  | "fawn" -> Exp_common.make_fawn ~nnodes:4 ~nclients:2 ()
  | "kvell" -> Exp_common.make_kvell ~nclients:2 ~object_size:256 ()
  | name -> invalid_arg name

let conformance name () =
  Sim.run (fun () ->
      let setup = small_setup name in
      let b = setup.Exp_common.backend in
      Alcotest.(check string) "selector name" name (Backend.name b);
      let c = List.hd setup.Exp_common.clients in
      for id = 0 to nkeys - 1 do
        Backend.put c (key id) (Workload.value_for ~id ~version:1 ~size:vsize)
      done;
      (* Get-after-put returns the written payload. *)
      for id = 0 to nkeys - 1 do
        match Backend.get c (key id) with
        | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: value %d matches" name id)
              true
              (Workload.value_matches ~id ~version:1 v)
        | None -> Alcotest.failf "%s: key %d missing after put" name id
      done;
      (* Overwrite visibility: the newest version wins. *)
      Backend.put c (key 0) (Workload.value_for ~id:0 ~version:2 ~size:vsize);
      (match Backend.get c (key 0) with
      | Some v ->
          Alcotest.(check bool) "overwrite visible" true (Workload.value_matches ~id:0 ~version:2 v)
      | None -> Alcotest.fail "overwritten key missing");
      (* Delete visibility and replicated accounting. *)
      for id = 0 to ndel - 1 do
        Backend.del c (key id)
      done;
      for id = 0 to ndel - 1 do
        Alcotest.(check (option reject)) (Printf.sprintf "%s: %d deleted" name id) None
          (Backend.get c (key id))
      done;
      (match Backend.get c (key ndel) with
      | Some _ -> ()
      | None -> Alcotest.fail "undeleted key vanished");
      Alcotest.(check int)
        (name ^ ": R=3 accounting")
        (3 * (nkeys - ndel))
        (Backend.total_objects b);
      (* Observability is live on every backend. *)
      let ctrs = Backend.counters b in
      Alcotest.(check bool) "nvme writes seen" true (Backend.count ctrs "blockdev.writes" > 0);
      Alcotest.(check bool) "watts positive" true (Backend.watts b ~util:1.0 > 0.);
      Alcotest.(check bool) "device busy observed" true (Backend.sum ctrs "blockdev.busy_s" > 0.);
      Alcotest.(check bool)
        "idle power <= active power" true
        (Backend.watts b ~util:0.0 <= Backend.watts b ~util:1.0))

(* The same seeded workload in two fresh simulation worlds must produce
   identical metrics — op counts, histogram shape, counter deltas. *)
let deterministic_metrics name () =
  let run () =
    Sim.run (fun () ->
        let setup = small_setup name in
        Exp_common.preload setup ~nkeys:200 ~value_size:vsize;
        let gen =
          Workload.generator ~object_size:256 (Workload.ycsb_a ()) ~nkeys:200 (Rng.create 42)
        in
        let m =
          Exp_common.measure_closed ~label:name ~setup ~clients:8 ~duration:0.03 ~gen ()
        in
        (m, Backend.total_objects setup.Exp_common.backend))
  in
  let m1, o1 = run () in
  let m2, o2 = run () in
  Alcotest.(check int) "ops" m1.Backend.ops m2.Backend.ops;
  Alcotest.(check (float 0.)) "throughput" m1.Backend.throughput m2.Backend.throughput;
  Alcotest.(check (float 0.)) "avg latency" m1.Backend.avg_lat m2.Backend.avg_lat;
  Alcotest.(check (float 0.)) "p99" m1.Backend.p99 m2.Backend.p99;
  Alcotest.(check bool) "counter deltas" true (m1.Backend.counters = m2.Backend.counters);
  Alcotest.(check (float 0.)) "watts" m1.Backend.watts m2.Backend.watts;
  Alcotest.(check int) "total objects" o1 o2

(* --- the named-counter registry --- *)

let names c = List.map fst c

let registry_of name =
  Sim.run (fun () -> Backend.counters (small_setup name).Exp_common.backend)

(* LEED with the in-network cache armed registers its full set. *)
let armed_leed_registry () =
  Sim.run (fun () ->
      Backend.counters
        (Exp_common.make_leed ~nclients:1 ~cache:(Netcache.enabled Netcache.default_config) ())
          .Exp_common.backend)

let unique_names () =
  List.iter
    (fun (name, registry) ->
      let ns = names registry in
      Alcotest.(check int) (name ^ ": no duplicate names") (List.length ns)
        (List.length (List.sort_uniq compare ns)))
    (("leed+cache", armed_leed_registry ())
    :: List.map (fun n -> (n, registry_of n)) Exp_common.backend_names)

let baselines_subset_of_leed () =
  let leed = names (registry_of "leed") in
  List.iter
    (fun name ->
      List.iter
        (fun n -> if not (List.mem n leed) then Alcotest.failf "%s registers %s, LEED does not" name n)
        (names (registry_of name)))
    [ "fawn"; "kvell" ]

let diff_subtracts_keeps_gauge () =
  let before = [ ("a.count", Backend.Count 3); ("a.sum", Sum 1.5); ("a.level", Gauge 7) ] in
  let after =
    [ ("a.count", Backend.Count 10); ("a.sum", Sum 4.0); ("a.level", Gauge 2); ("a.new", Count 5) ]
  in
  let d = Backend.diff ~after ~before in
  Alcotest.(check (list string)) "after's order" (names after) (names d);
  Alcotest.(check int) "count subtracts" 7 (Backend.count d "a.count");
  Alcotest.(check (float 0.)) "sum subtracts" 2.5 (Backend.sum d "a.sum");
  Alcotest.(check int) "gauge keeps after" 2 (Backend.count d "a.level");
  Alcotest.(check int) "new name counts from 0" 5 (Backend.count d "a.new")

let unregistered_reads_zero () =
  let fawn = registry_of "fawn" in
  Alcotest.(check int) "count" 0 (Backend.count fawn "client.hedges");
  Alcotest.(check (float 0.)) "sum" 0. (Backend.sum fawn "client.backoff_s");
  Alcotest.(check int) "derived" 0 (Backend.sheds fawn)

(* The chaos digest reads its counters by name; a typo there would read
   0 forever. *)
let leed_registers_digest_counters () =
  let leed = names (armed_leed_registry ()) in
  List.iter
    (fun n -> if not (List.mem n leed) then Alcotest.failf "digest reads unregistered %s" n)
    Leed_fault.Fault.Chaos.digest_counters

let () =
  Alcotest.run "leed_backend"
    [
      ( "conformance",
        List.map
          (fun n -> Alcotest.test_case n `Quick (conformance n))
          Exp_common.backend_names );
      ( "determinism",
        List.map
          (fun n -> Alcotest.test_case n `Quick (deterministic_metrics n))
          Exp_common.backend_names );
      ( "registry",
        [
          Alcotest.test_case "names are unique" `Quick unique_names;
          Alcotest.test_case "baselines' names are a subset of LEED's" `Quick
            baselines_subset_of_leed;
          Alcotest.test_case "diff subtracts, keeps a gauge's after" `Quick
            diff_subtracts_keeps_gauge;
          Alcotest.test_case "unregistered name reads 0" `Quick unregistered_reads_zero;
          Alcotest.test_case "LEED registers every chaos digest counter" `Quick
            leed_registers_digest_counters;
        ] );
    ]
