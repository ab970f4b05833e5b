(* Tests for the simultaneous-event race detector: the perturbed
   tie-break policies themselves (permutation of the same events,
   determinism under a fixed seed, [Perturb_first] with limit 0
   degenerating to FIFO), the determinism contract on the shipped
   targets (fast variants, K perturbed orderings each), and detection
   plus first-commuting-pair attribution on the racy fixture. *)

open Leed_sim
module Race = Leed_race.Race

(* --- tie-break policy unit tests --- *)

(* A burst of simultaneous labelled events: everything fires at t=1.0,
   so the tie-break policy alone decides execution order. *)
let burst_log ?tiebreak n =
  let log = ref [] in
  Sim.run ?tiebreak
    ~on_dispatch:(fun d -> log := d :: !log)
    (fun () ->
      for i = 0 to n - 1 do
        Sim.spawn ~label:(Printf.sprintf "ev%d" i) (fun () -> Sim.delay 1.0)
      done;
      Sim.delay 2.0);
  List.rev !log

let labels log = List.map (fun d -> d.Sim.d_label) log

let test_perturbed_is_permutation () =
  let n = 32 in
  let fifo = burst_log n in
  let pert = burst_log ~tiebreak:(Sim.Perturbed 0xBEEF) n in
  Alcotest.(check int) "same event count" (List.length fifo) (List.length pert);
  Alcotest.(check (slist string String.compare))
    "same multiset of labels" (labels fifo) (labels pert);
  Alcotest.(check bool)
    "orders actually differ" true
    (labels fifo <> labels pert)

let test_perturbed_deterministic () =
  let a = burst_log ~tiebreak:(Sim.Perturbed 7) 32 in
  let b = burst_log ~tiebreak:(Sim.Perturbed 7) 32 in
  Alcotest.(check (list string)) "same seed, same order" (labels a) (labels b);
  let c = burst_log ~tiebreak:(Sim.Perturbed 8) 32 in
  Alcotest.(check bool) "different seed, different order" true (labels a <> labels c)

let test_perturb_first_limit_zero_is_fifo () =
  let fifo = burst_log 32 in
  let lim0 = burst_log ~tiebreak:(Sim.Perturb_first { seed = 0xBEEF; limit = 0 }) 32 in
  Alcotest.(check (list string)) "limit 0 degenerates to FIFO" (labels fifo) (labels lim0)

let test_perturb_first_full_limit_is_perturbed () =
  let pert = burst_log ~tiebreak:(Sim.Perturbed 0xBEEF) 32 in
  let full =
    burst_log ~tiebreak:(Sim.Perturb_first { seed = 0xBEEF; limit = max_int }) 32
  in
  Alcotest.(check (list string))
    "unbounded limit matches Perturbed" (labels pert) (labels full)

(* --- perturbed-run determinism on a real target --- *)

let test_target_digest_deterministic_per_seed () =
  let t = Race.find_target ~fast:true "chaos" in
  let d1 = t.Race.run ~tiebreak:(Sim.Perturbed 0x5EED) () in
  let d2 = t.Race.run ~tiebreak:(Sim.Perturbed 0x5EED) () in
  Alcotest.(check string) "same perturbation seed, same digest" d1 d2

(* --- the determinism contract: clean targets stay clean --- *)

let test_clean_targets_no_divergence () =
  List.iter
    (fun (t : Race.target) ->
      if not t.Race.expect_divergence then begin
        let r = Race.check ~runs:8 t in
        Alcotest.(check int)
          (Printf.sprintf "%s: zero divergences" t.Race.name)
          0
          (List.length r.Race.divergences);
        Alcotest.(check bool) (t.Race.name ^ ": passed") true (Race.passed r)
      end)
    (Race.targets ~fast:true ())

(* --- the clean targets' FIFO baselines are pinned --- *)

(* Digest and dispatched-event count of every clean fast target under
   FIFO. The YCSB targets run the fixed-count sharded load and the chaos
   targets run fixed-op chaos workers; nothing in test/golden covers
   either, so a change to those loops that moves an op stream, a key or
   an event shows up here. *)
let pinned =
  [
    ("ycsb-a-leed", "72cd403301c503eed0fc4f51e2b9cd95", 36187);
    ("ycsb-b-leed", "181f22e431e49c95ea81af7e8d3b04dc", 27460);
    ("ycsb-c-leed", "0b8c7bc287be85e4c7132ea61dad4471", 26744);
    ("ycsb-b-fawn", "181f22e431e49c95ea81af7e8d3b04dc", 17507);
    ("ycsb-b-kvell", "181f22e431e49c95ea81af7e8d3b04dc", 20756);
    ("chaos", "079bdf130a7005b7350ed753655aa6f2", 44732);
    ("chaos-bitrot", "dd1291c4e2999af7fdca7144d97d7359", 87585);
  ]

let test_clean_targets_pinned () =
  let clean =
    List.filter (fun (t : Race.target) -> not t.Race.expect_divergence) (Race.targets ~fast:true ())
  in
  Alcotest.(check (list string))
    "pinned targets" (List.map (fun (n, _, _) -> n) pinned)
    (List.map (fun t -> t.Race.name) clean);
  List.iter
    (fun (t : Race.target) ->
      let _, digest, events = List.find (fun (n, _, _) -> n = t.Race.name) pinned in
      let r = Race.check ~runs:0 t in
      Alcotest.(check (pair string int))
        (t.Race.name ^ ": digest, events")
        (digest, events)
        (r.Race.base_digest, r.Race.events))
    clean

(* --- the racy fixture is detected and correctly attributed --- *)

let test_racy_fixture_detected () =
  let t = Race.find_target ~fast:true "racy-demo" in
  let r = Race.check ~runs:8 t in
  Alcotest.(check bool) "divergences found" true (r.Race.divergences <> []);
  Alcotest.(check bool) "racy target passes (expected divergence)" true (Race.passed r);
  (* every divergence that was attributed must name a pair of
     simultaneous events, at least one of them a racy writer *)
  let attributed =
    List.filter_map (fun d -> d.Race.attribution) r.Race.divergences
  in
  Alcotest.(check bool) "at least one divergence attributed" true (attributed <> []);
  List.iter
    (fun (a : Race.attribution) ->
      Alcotest.(check bool)
        "commuting pair is simultaneous" true
        (Float.equal a.Race.baseline_ev.Sim.d_time a.Race.perturbed_ev.Sim.d_time);
      let racy d = String.length d.Sim.d_label >= 5 && String.sub d.Sim.d_label 0 5 = "racy:" in
      Alcotest.(check bool)
        "pair involves a racy writer" true
        (racy a.Race.baseline_ev || racy a.Race.perturbed_ev))
    attributed

let () =
  Alcotest.run "race"
    [
      ( "tiebreak",
        [
          Alcotest.test_case "perturbed is a permutation" `Quick test_perturbed_is_permutation;
          Alcotest.test_case "perturbed deterministic per seed" `Quick
            test_perturbed_deterministic;
          Alcotest.test_case "perturb_first limit 0 = fifo" `Quick
            test_perturb_first_limit_zero_is_fifo;
          Alcotest.test_case "perturb_first unbounded = perturbed" `Quick
            test_perturb_first_full_limit_is_perturbed;
        ] );
      ( "detector",
        [
          Alcotest.test_case "per-seed digest determinism" `Quick
            test_target_digest_deterministic_per_seed;
          Alcotest.test_case "clean targets pinned (FIFO)" `Quick test_clean_targets_pinned;
          Alcotest.test_case "clean targets stay clean (K=8)" `Slow
            test_clean_targets_no_divergence;
          Alcotest.test_case "racy fixture detected + attributed" `Quick
            test_racy_fixture_detected;
        ] );
    ]
