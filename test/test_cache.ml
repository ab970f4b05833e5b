(* Tests for the in-network hot-object cache (DESIGN.md §15): classifier
   hysteresis, hit/miss/invalidate correctness through a live cluster,
   read-your-writes freshness while the cache is serving, TTL expiry,
   same-seed eviction determinism, and full chaos runs (both protocols)
   with the cache armed. *)

open Leed_sim
open Leed_core
module Fault = Leed_fault.Fault

(* Aggressive geometry so a unit test promotes within a handful of
   operations: tiny windows, thresholds of a few observations. *)
let test_cache_cfg =
  Netcache.enabled
    {
      Netcache.default_config with
      Netcache.instances = 2;
      capacity = 8;
      ttl = 0.5;
      groups = 8;
      window = 0.005;
      warm_up = 2;
      warm_down = 1;
      hot_up = 50;
      hot_down = 25;
    }

let make_cluster ?(cache = test_cache_cfg) () =
  Cluster.create ~config:{ Cluster.default_config with Cluster.nnodes = 3; cache } ()

let cache_of cluster =
  match Cluster.cache cluster with
  | Some c -> c
  | None -> Alcotest.fail "cluster did not arm the cache"

(* Drive GETs across classifier windows until the cache engages. *)
let warm_key client key ~rounds =
  for _ = 1 to rounds do
    ignore (Client.get client key);
    Sim.delay 0.002
  done

(* --- classifier hysteresis --- *)

let test_classifier_hysteresis () =
  Sim.run (fun () ->
      let module C = Netcache.Classifier in
      let cls =
        C.create ~groups:4 ~window:0.01 ~warm_up:4 ~warm_down:2 ~hot_up:10 ~hot_down:5 ()
      in
      let observe_n g n =
        for _ = 1 to n do
          ignore (C.observe cls g)
        done;
        Sim.delay 0.011;
        (* the rotation is lazy: it happens on the next observation, which
           itself counts toward the *new* window *)
        ignore (C.observe cls g)
      in
      Alcotest.(check bool) "starts cold" true (C.klass cls 0 = C.Cold);
      (* below warm_up: stays cold *)
      observe_n 0 2;
      Alcotest.(check bool) "3 obs < warm_up stays cold" true (C.klass cls 0 = C.Cold);
      (* reach warm_up within one window: promotes *)
      observe_n 0 5;
      Alcotest.(check bool) "promoted to warm" true (C.klass cls 0 = C.Warm);
      (* hysteresis: a window between warm_down and warm_up keeps it warm *)
      observe_n 0 2;
      Alcotest.(check bool) "3 obs >= warm_down stays warm" true (C.klass cls 0 = C.Warm);
      (* below warm_down: demotes back to cold *)
      observe_n 0 0;
      Alcotest.(check bool) "1 obs < warm_down demotes" true (C.klass cls 0 = C.Cold);
      (* straight to hot from cold when a window clears hot_up *)
      observe_n 1 15;
      Alcotest.(check bool) "burst promotes to hot" true (C.klass cls 1 = C.Hot);
      Alcotest.(check bool) "hot group counted" true (C.hot_groups cls = 1);
      (* hot_down-to-warm_down window: hot falls to warm, not cold *)
      observe_n 1 3;
      Alcotest.(check bool) "partial decay demotes to warm" true (C.klass cls 1 = C.Warm);
      Alcotest.(check bool) "promotes counted" true (C.promotes cls >= 2);
      Alcotest.(check bool) "demotes counted" true (C.demotes cls >= 2);
      (* untouched group unaffected throughout *)
      Alcotest.(check bool) "other group still cold" true (C.klass cls 3 = C.Cold))

(* --- hit / miss / invalidate through a live cluster --- *)

let test_hit_miss_invalidate () =
  Sim.run (fun () ->
      let cluster = make_cluster () in
      let c = Cluster.client cluster in
      let key = "cache-key-0" in
      let v1 = Bytes.of_string "version-one....." in
      Client.put c key v1;
      warm_key c key ~rounds:30;
      let s = Netcache.stats (cache_of cluster) in
      Alcotest.(check bool) "cache served hits" true (s.Netcache.hits > 0);
      Alcotest.(check bool) "first lookup was a miss" true (s.Netcache.misses > 0);
      (match Client.get c key with
      | Some v -> Alcotest.(check bool) "cached value correct" true (Bytes.equal v v1)
      | None -> Alcotest.fail "key lost");
      (* a PUT invalidates: the very next GET must see the new value *)
      let v2 = Bytes.of_string "version-two....." in
      Client.put c key v2;
      (match Client.get c key with
      | Some v -> Alcotest.(check bool) "no stale read after put" true (Bytes.equal v v2)
      | None -> Alcotest.fail "key lost after update");
      let s = Netcache.stats (cache_of cluster) in
      Alcotest.(check bool) "write invalidated" true (s.Netcache.invalidations > 0))

(* --- read-your-writes while the cache is serving --- *)

let test_never_stale_under_updates () =
  Sim.run (fun () ->
      let cluster = make_cluster () in
      let c = Cluster.client cluster in
      let key = "cache-key-rw" in
      let value seq = Bytes.of_string (Printf.sprintf "seq-%06d........" seq) in
      Client.put c key (value 0);
      warm_key c key ~rounds:20;
      (* updates interleaved with reads: every read must observe the
         client's own latest write, cached or not *)
      for seq = 1 to 40 do
        Client.put c key (value seq);
        (match Client.get c key with
        | Some v ->
            if not (Bytes.equal v (value seq)) then
              Alcotest.failf "stale read at seq %d: %S" seq (Bytes.to_string v)
        | None -> Alcotest.failf "key lost at seq %d" seq);
        (* extra reads keep the group classified and the entry resident *)
        ignore (Client.get c key);
        Sim.delay 0.001
      done;
      let s = Netcache.stats (cache_of cluster) in
      Alcotest.(check bool) "cache stayed engaged" true (s.Netcache.hits > 0);
      Alcotest.(check bool) "updates invalidated" true (s.Netcache.invalidations > 0))

(* --- TTL expiry --- *)

let test_ttl_expiry () =
  Sim.run (fun () ->
      let ttl = 0.05 in
      let cluster = make_cluster ~cache:{ test_cache_cfg with Netcache.ttl } () in
      let c = Cluster.client cluster in
      let key = "cache-key-ttl" in
      let v = Bytes.of_string "short-lived....." in
      Client.put c key v;
      warm_key c key ~rounds:30;
      Alcotest.(check bool) "cache engaged" true
        ((Netcache.stats (cache_of cluster)).Netcache.hits > 0);
      (* idle past the TTL: the resident entry is dead, the next lookup
         drops it and still returns the right value from the backend *)
      Sim.delay (ttl *. 3.);
      (match Client.get c key with
      | Some got -> Alcotest.(check bool) "post-TTL value correct" true (Bytes.equal got v)
      | None -> Alcotest.fail "key lost after TTL");
      let s = Netcache.stats (cache_of cluster) in
      Alcotest.(check bool) "expiry observed" true (s.Netcache.expirations > 0))

(* --- same-seed determinism of eviction --- *)

(* One fixed op mix over more keys than the cache holds, so LRU eviction
   churns; the digest folds in every resident (key, LRU tick) pair. *)
let eviction_run () =
  Sim.run (fun () ->
      let cluster = make_cluster () in
      let c = Cluster.client cluster in
      let rng = Rng.create 77 in
      let key i = Printf.sprintf "evict-%03d" i in
      for i = 0 to 31 do
        Client.put c (key i) (Bytes.of_string (Printf.sprintf "value-%03d......." i))
      done;
      for _ = 1 to 400 do
        let i = Rng.int rng 32 in
        (match Rng.int rng 10 with
        | 0 -> Client.put c (key i) (Bytes.of_string (Printf.sprintf "update-%03d......" i))
        | _ -> ignore (Client.get c (key i)));
        Sim.delay 0.0005
      done;
      let cache = cache_of cluster in
      let s = Netcache.stats cache in
      Alcotest.(check bool) "eviction exercised" true (s.Netcache.evictions > 0);
      (Netcache.digest cache, s.Netcache.hits, s.Netcache.misses))

let test_eviction_deterministic () =
  let d1, h1, m1 = eviction_run () in
  let d2, h2, m2 = eviction_run () in
  Alcotest.(check string) "same-seed digest identical" d1 d2;
  Alcotest.(check int) "hits identical" h1 h2;
  Alcotest.(check int) "misses identical" m1 m2

(* --- chaos with the cache armed: all six invariants, both protocols --- *)

let chaos_cfg proto =
  {
    Fault.Chaos.fast_config with
    Fault.Chaos.duration = 2.0;
    proto;
    cache = true;
  }

let test_chaos_cached_crrs () =
  let cfg = chaos_cfg Replication.Crrs in
  let r1 = Fault.Chaos.run ~checks:true cfg in
  let r2 = Fault.Chaos.run ~checks:true cfg in
  if not r1.Fault.Chaos.ok then
    Alcotest.failf "invariants failed: %s"
      (String.concat ", " r1.Fault.Chaos.failed_invariants);
  Alcotest.(check int) "linearizability violations" 0 r1.Fault.Chaos.lin_violations;
  Alcotest.(check bool) "history checked" true (r1.Fault.Chaos.lin_checked_keys > 0);
  Alcotest.(check bool) "cache served under chaos" true (Backend.count r1.Fault.Chaos.counters "netcache.hits" > 0);
  Alcotest.(check string) "same-seed digest identical" r1.Fault.Chaos.digest
    r2.Fault.Chaos.digest

let test_chaos_cached_abd () =
  let r = Fault.Chaos.run ~checks:true (chaos_cfg Replication.Abd) in
  if not r.Fault.Chaos.ok then
    Alcotest.failf "invariants failed: %s" (String.concat ", " r.Fault.Chaos.failed_invariants);
  Alcotest.(check int) "linearizability violations" 0 r.Fault.Chaos.lin_violations;
  (* under ABD every read is a Tag_read quorum the cache must not
     intercept: armed but silent *)
  Alcotest.(check int) "no cache hits under ABD" 0
    (Backend.count r.Fault.Chaos.counters "netcache.hits")

let () =
  Alcotest.run "leed_cache"
    [
      ( "classifier",
        [ Alcotest.test_case "promote/demote hysteresis" `Quick test_classifier_hysteresis ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss/invalidate" `Quick test_hit_miss_invalidate;
          Alcotest.test_case "never stale under updates" `Quick test_never_stale_under_updates;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
          Alcotest.test_case "same-seed eviction determinism" `Quick test_eviction_deterministic;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crrs: six invariants with cache" `Slow test_chaos_cached_crrs;
          Alcotest.test_case "abd: six invariants with cache" `Slow test_chaos_cached_abd;
        ] );
    ]
