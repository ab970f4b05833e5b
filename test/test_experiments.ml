(* Smoke tests for the experiment harness: the backend-generic system
   builders produce working clusters and the measurement plumbing returns
   sane numbers. Windows are tiny — correctness of the pipeline, not
   statistics, is under test. *)

open Leed_sim
open Leed_core
open Leed_workload
open Leed_experiments

let test_leed_setup_measures () =
  let m =
    Sim.run (fun () ->
        let s = Exp_common.make_leed ~nclients:2 () in
        Exp_common.preload s ~nkeys:500 ~value_size:240;
        let gen = Workload.generator ~object_size:256 (Workload.ycsb_b ()) ~nkeys:500 (Rng.create 1) in
        Exp_common.measure_closed ~label:"t" ~setup:s ~clients:16 ~duration:0.02 ~gen ())
  in
  Alcotest.(check bool) "ops" true (m.Backend.ops > 100);
  Alcotest.(check bool) "throughput" true (m.Backend.throughput > 1e4);
  Alcotest.(check bool) "latency sane" true
    (m.Backend.avg_lat > 1e-5 && m.Backend.avg_lat < 1e-2);
  Alcotest.(check bool) "p999 >= avg" true (m.Backend.p999 >= m.Backend.avg_lat *. 0.9);
  (* The unified observability fields are live: a half-write workload hits
     flash, and the power model reports the 3-JBOF figure. *)
  Alcotest.(check bool) "nvme accesses" true (Backend.nvme_accesses m.Backend.counters > 0);
  Alcotest.(check (float 0.01)) "watts" 157.5 m.Backend.watts;
  Alcotest.(check bool) "qpj consistent" true
    (abs_float (m.Backend.queries_per_joule -. (m.Backend.throughput /. m.Backend.watts)) < 1e-6)

let test_fawn_setup_measures () =
  let m =
    Sim.run (fun () ->
        let s = Exp_common.make_fawn ~nnodes:4 ~nclients:2 () in
        Exp_common.preload s ~nkeys:200 ~value_size:240;
        let gen = Workload.generator ~object_size:256 (Workload.ycsb_b ()) ~nkeys:200 (Rng.create 2) in
        Exp_common.measure_closed ~label:"t" ~setup:s ~clients:8 ~duration:0.1 ~gen ())
  in
  Alcotest.(check bool) "ops" true (m.Backend.ops > 20);
  (* FAWN's Pis are interrupt-driven, so reported power scales with the
     device utilisation observed in the window: 4 nodes land between the
     all-idle floor (4 x 3.6 W) and the flat-out ceiling (4 x 4.2 W),
     strictly above idle because the workload did real I/O. *)
  Alcotest.(check bool)
    (Printf.sprintf "watts in power-proportional band (%.3f)" m.Backend.watts)
    true
    (m.Backend.watts > 14.4 && m.Backend.watts <= 16.8)

let test_kvell_setup_measures () =
  let m =
    Sim.run (fun () ->
        let s = Exp_common.make_kvell ~nclients:2 ~object_size:256 () in
        Exp_common.preload s ~nkeys:500 ~value_size:240;
        let gen = Workload.generator ~object_size:256 (Workload.ycsb_b ()) ~nkeys:500 (Rng.create 3) in
        Exp_common.measure_closed ~label:"t" ~setup:s ~clients:32 ~duration:0.02 ~gen ())
  in
  Alcotest.(check bool) "ops" true (m.Backend.ops > 100);
  Alcotest.(check (float 0.01)) "watts" 756.0 m.Backend.watts

let test_setup_of_name () =
  (* Name-based selection returns the right implementation, and the
     unknown-name path fails loudly. *)
  Sim.run (fun () ->
      List.iter
        (fun n ->
          let s = Exp_common.setup_of_name ~nclients:1 n in
          Alcotest.(check string) "name" n (Backend.name s.Exp_common.backend))
        Exp_common.backend_names);
  Alcotest.check_raises "unknown" (Invalid_argument "unknown backend \"rocks\" (try: leed/fawn/kvell)")
    (fun () -> Sim.run (fun () -> ignore (Exp_common.setup_of_name "rocks")))

let test_open_loop_attribution () =
  (* Throughput must be attributed to the issuing window, not the drain. *)
  let m =
    Sim.run (fun () ->
        let gen = Workload.generator (Workload.ycsb_c ()) ~nkeys:100 (Rng.create 4) in
        Workload.Driver.open_loop ~rate:10_000. ~duration:0.05
          ~gen ~execute:(fun _ -> Sim.delay 1e-4) ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "thr %.0f ~ 10K" m.Workload.Driver.throughput)
    true
    (m.Workload.Driver.throughput > 7_000. && m.Workload.Driver.throughput < 13_000.)

let test_energy_helpers () =
  let w = Exp_common.cluster_watts Leed_platform.Platform.smartnic_jbof 3 in
  Alcotest.(check (float 0.01)) "3 stingrays" 157.5 w;
  Alcotest.(check (float 1e-9)) "qpj" 2.0 (Exp_common.queries_per_joule ~throughput:315. ~watts:157.5)

let test_capacity_model_ordering () =
  (* Table 3 capacity model: LEED >> FAWN >> KVell at both object sizes. *)
  List.iter
    (fun object_size ->
      let f = Table3.fawn_capacity ~object_size in
      let k = Table3.kvell_capacity ~object_size in
      let l = Table3.leed_capacity ~object_size in
      Alcotest.(check bool) (Printf.sprintf "%dB: leed %.2f > fawn %.2f > kvell %.2f" object_size l f k)
        true
        (l > f && f > k && l > 0.75))
    [ 256; 1024 ]

(* The registry is the one list both CLIs resolve experiment names
   through: names must be unique (a duplicate would shadow an entry in
   [resolve]), the paper set is what a bare bench run regenerates, and
   resolution reports unknown names instead of dropping them. *)
let test_registry_names_unique () =
  let names = List.map fst Registry.all in
  Alcotest.(check (list string)) "no duplicates" (List.sort_uniq compare names)
    (List.sort compare names)

let test_registry_paper_set () =
  Alcotest.(check (list string))
    "paper artifacts in presentation order"
    [
      "table1"; "fig1"; "table3"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11";
      "fig12"; "fig13"; "fig14";
    ]
    (List.map fst Registry.paper)

let test_registry_resolve () =
  let names r = Result.map (List.map fst) r in
  let check what expected got =
    Alcotest.(check (result (list string) (list string))) what expected (names got)
  in
  check "unknown names reported" (Error [ "nope" ]) (Registry.resolve [ "fig7"; "nope" ]);
  check "order of unknowns kept" (Error [ "b"; "a" ]) (Registry.resolve [ "b"; "fig1"; "a" ]);
  check "known names in the order given" (Ok [ "fig7"; "table1"; "failslow" ])
    (Registry.resolve [ "fig7"; "table1"; "failslow" ]);
  check "empty" (Ok []) (Registry.resolve [])

let () =
  Alcotest.run "leed_experiments"
    [
      ( "harness",
        [
          Alcotest.test_case "leed setup measures" `Quick test_leed_setup_measures;
          Alcotest.test_case "fawn setup measures" `Quick test_fawn_setup_measures;
          Alcotest.test_case "kvell setup measures" `Quick test_kvell_setup_measures;
          Alcotest.test_case "setup of name" `Quick test_setup_of_name;
          Alcotest.test_case "open-loop attribution" `Quick test_open_loop_attribution;
          Alcotest.test_case "energy helpers" `Quick test_energy_helpers;
          Alcotest.test_case "capacity model ordering" `Quick test_capacity_model_ordering;
        ] );
      ( "experiment registry",
        [
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "paper set" `Quick test_registry_paper_set;
          Alcotest.test_case "resolve" `Quick test_registry_resolve;
        ] );
    ]
