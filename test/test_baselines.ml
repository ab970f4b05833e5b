(* Tests for the baseline systems: FAWN-DS, KVell, and their cluster
   wrappers. *)

open Leed_sim
open Leed_core
open Leed_baselines
open Leed_blockdev

let key = Leed_workload.Workload.key_of_id

(* --- FAWN store --- *)

let mk_fawn ?(dram = 1024 * 1024) ?(size = 8 * 1024 * 1024) () =
  let dev = Blockdev.create (Blockdev.instant ()) in
  let log = Circular_log.create ~name:"flog" ~dev ~dev_id:0 ~base:0 ~size in
  Fawn_store.create
    ~config:{ Fawn_store.default_config with Fawn_store.dram_budget = dram }
    ~log ()

let test_fawn_put_get_del () =
  Sim.run (fun () ->
      let s = mk_fawn () in
      Fawn_store.put s (key 1) (Bytes.of_string "one");
      Fawn_store.put s (key 2) (Bytes.of_string "two");
      Alcotest.(check (option string)) "get" (Some "one")
        (Option.map Bytes.to_string (Fawn_store.get s (key 1)));
      Fawn_store.put s (key 1) (Bytes.of_string "uno");
      Alcotest.(check (option string)) "overwrite" (Some "uno")
        (Option.map Bytes.to_string (Fawn_store.get s (key 1)));
      Fawn_store.del s (key 1);
      Alcotest.(check (option string)) "deleted" None
        (Option.map Bytes.to_string (Fawn_store.get s (key 1)));
      Alcotest.(check int) "objects" 1 (Fawn_store.objects s))

let test_fawn_survives_flush () =
  Sim.run (fun () ->
      let s = mk_fawn () in
      for i = 0 to 199 do
        Fawn_store.put s (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      Fawn_store.flush s;
      for i = 0 to 199 do
        Alcotest.(check (option string)) "post-flush" (Some (Printf.sprintf "v%d" i))
          (Option.map Bytes.to_string (Fawn_store.get s (key i)))
      done)

let test_fawn_one_ssd_access_per_get () =
  Sim.run (fun () ->
      let s = mk_fawn () in
      Fawn_store.put s (key 1) (Bytes.make 200 'x');
      Fawn_store.flush s;
      let before = (Fawn_store.counters s).Fawn_store.c_reads in
      ignore (Fawn_store.get s (key 1));
      Alcotest.(check int) "1 indexed read" (before + 1) (Fawn_store.counters s).Fawn_store.c_reads)

let test_fawn_index_capacity_limit () =
  Sim.run (fun () ->
      (* 600 B of DRAM at 6 B/object = 100 objects max. *)
      let s = mk_fawn ~dram:600 () in
      Alcotest.(check int) "max objects" 100 (Fawn_store.max_objects s);
      for i = 0 to 99 do
        Fawn_store.put s (key i) (Bytes.of_string "x")
      done;
      (match Fawn_store.put s (key 100) (Bytes.of_string "x") with
      | () -> Alcotest.fail "expected Index_full"
      | exception Fawn_store.Index_full -> ());
      (* Overwrites are still fine. *)
      Fawn_store.put s (key 5) (Bytes.of_string "y"))

let test_fawn_compaction () =
  Sim.run (fun () ->
      let s = mk_fawn ~size:(256 * 1024) () in
      for round = 1 to 20 do
        for i = 0 to 19 do
          Fawn_store.put s (key i) (Bytes.make 256 (Char.chr (64 + round)))
        done
      done;
      for _ = 1 to 10 do
        ignore (Fawn_store.compact s)
      done;
      for i = 0 to 19 do
        match Fawn_store.get s (key i) with
        | Some v -> Alcotest.(check char) "latest round" 'T' (Bytes.get v 0)
        | None -> Alcotest.failf "key %d lost" i
      done)

let test_fawn_addressable_fraction () =
  Sim.run (fun () ->
      (* 32 GB flash, 8 MB index DRAM, 256 B objects: FAWN can index only a
         sliver of the device — the Table 3 effect. *)
      let dev = Blockdev.create (Blockdev.instant ~capacity_bytes:(32 * 1024 * 1024 * 1024) ()) in
      let log = Circular_log.create ~name:"f" ~dev ~dev_id:0 ~base:0 ~size:(Blockdev.capacity dev) in
      let s =
        Fawn_store.create
          ~config:{ Fawn_store.default_config with Fawn_store.dram_budget = 8 * 1024 * 1024 }
          ~log ()
      in
      let frac = Fawn_store.addressable_fraction s ~object_size:256 in
      Alcotest.(check bool) (Printf.sprintf "%.4f < 0.05" frac) true (frac < 0.05))

let fawn_model_prop =
  QCheck.Test.make ~name:"fawn store behaves like a hashtable" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 100)
        (pair (int_bound 25) (option (string_of_size (Gen.int_range 1 50)))))
    (fun ops ->
      Sim.run (fun () ->
          let s = mk_fawn () in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (id, v) ->
              match v with
              | Some v when String.length v > 0 ->
                  Fawn_store.put s (key id) (Bytes.of_string v);
                  Hashtbl.replace model (key id) v
              | _ ->
                  Fawn_store.del s (key id);
                  Hashtbl.remove model (key id))
            ops;
          ignore (Fawn_store.compact s);
          Hashtbl.fold
            (fun k v acc ->
              acc && Option.map Bytes.to_string (Fawn_store.get s k) = Some v)
            model true))

(* --- KVell store --- *)

let mk_kvell ?(nworkers = 2) () =
  let devs = Array.init 2 (fun _ -> Blockdev.create (Blockdev.instant ())) in
  Kvell_store.create
    ~config:{ Kvell_store.default_config with Kvell_store.nworkers; slot_size = 512 }
    ~devs ()

let test_kvell_put_get_del () =
  Sim.run (fun () ->
      let s = mk_kvell () in
      Kvell_store.put s (key 1) (Bytes.of_string "one");
      Alcotest.(check (option string)) "get" (Some "one")
        (Option.map Bytes.to_string (Kvell_store.get s (key 1)));
      Kvell_store.put s (key 1) (Bytes.of_string "uno");
      Alcotest.(check (option string)) "in-place update" (Some "uno")
        (Option.map Bytes.to_string (Kvell_store.get s (key 1)));
      Kvell_store.del s (key 1);
      Alcotest.(check (option string)) "deleted" None
        (Option.map Bytes.to_string (Kvell_store.get s (key 1))))

let test_kvell_many_keys_across_workers () =
  Sim.run (fun () ->
      let s = mk_kvell ~nworkers:4 () in
      for i = 0 to 499 do
        Kvell_store.put s (key i) (Bytes.of_string (Printf.sprintf "v%d" i))
      done;
      Alcotest.(check int) "objects" 500 (Kvell_store.objects s);
      for i = 0 to 499 do
        Alcotest.(check (option string)) "value" (Some (Printf.sprintf "v%d" i))
          (Option.map Bytes.to_string (Kvell_store.get s (key i)))
      done)

let test_kvell_slot_reuse () =
  Sim.run (fun () ->
      let s = mk_kvell () in
      Kvell_store.put s (key 1) (Bytes.of_string "a");
      Kvell_store.del s (key 1);
      Kvell_store.put s (key 2) (Bytes.of_string "b");
      (* The freed slot is recycled; both operations must be coherent. *)
      Alcotest.(check (option string)) "b" (Some "b")
        (Option.map Bytes.to_string (Kvell_store.get s (key 2)));
      Alcotest.(check (option string)) "a gone" None
        (Option.map Bytes.to_string (Kvell_store.get s (key 1))))

let test_kvell_cache_hits () =
  Sim.run (fun () ->
      let s = mk_kvell () in
      Kvell_store.put s (key 1) (Bytes.of_string "hot");
      for _ = 1 to 10 do
        ignore (Kvell_store.get s (key 1))
      done;
      let cs = Kvell_store.cache_stats s in
      Alcotest.(check bool)
        (Printf.sprintf "hits %d > 0" cs.Kvell_store.hits)
        true (cs.Kvell_store.hits > 0))

let test_kvell_dram_capacity_limit () =
  Sim.run (fun () ->
      let devs = [| Blockdev.create (Blockdev.instant ()) |] in
      let s =
        Kvell_store.create
          ~config:
            {
              Kvell_store.default_config with
              Kvell_store.nworkers = 1;
              slot_size = 512;
              dram_budget = 1280; (* (1-0.25)*1280/64 = 15 objects *)
            }
          ~devs ()
      in
      Alcotest.(check int) "max objects" 15 (Kvell_store.max_objects s);
      for i = 0 to 14 do
        Kvell_store.put s (key i) (Bytes.of_string "x")
      done;
      match Kvell_store.put s (key 99) (Bytes.of_string "x") with
      | () -> Alcotest.fail "expected Dram_full"
      | exception Kvell_store.Dram_full -> ())

(* An item too large for its slot, a key too long for the slot header
   and a put into a full slab each fail that one call; the workers keep
   serving the rest of the run. *)
let test_kvell_put_failures_stay_local () =
  Sim.run (fun () ->
      (* one worker over a four-slot slab *)
      let devs = [| Blockdev.create (Blockdev.instant ~capacity_bytes:(4 * 512) ()) |] in
      let s =
        Kvell_store.create
          ~config:{ Kvell_store.default_config with Kvell_store.nworkers = 1; slot_size = 512 }
          ~devs ()
      in
      let get k = Option.map Bytes.to_string (Kvell_store.get s k) in
      (match Kvell_store.put s (key 0) (Bytes.make 512 'x') with
      | () -> Alcotest.fail "expected Invalid_argument for an oversized item"
      | exception Invalid_argument _ -> ());
      (match Kvell_store.put s (String.make 256 'k') (Bytes.of_string "v") with
      | () -> Alcotest.fail "expected Invalid_argument for a 256-byte key"
      | exception Invalid_argument _ -> ());
      for i = 0 to 3 do
        Kvell_store.put s (key i) (Bytes.of_string (string_of_int i))
      done;
      (match Kvell_store.put s (key 4) (Bytes.of_string "4") with
      | () -> Alcotest.fail "expected Slab_full"
      | exception Kvell_store.Slab_full -> ());
      Alcotest.(check int) "objects" 4 (Kvell_store.objects s);
      Alcotest.(check (option string)) "refused key absent" None (get (key 4));
      Kvell_store.put s (key 1) (Bytes.of_string "one");
      Alcotest.(check (option string)) "in-place update" (Some "one") (get (key 1));
      Kvell_store.del s (key 0);
      Kvell_store.put s (key 4) (Bytes.of_string "4");
      Alcotest.(check (option string)) "freed slot reused" (Some "4") (get (key 4)))

let kvell_model_prop =
  QCheck.Test.make ~name:"kvell store behaves like a hashtable" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 100)
        (pair (int_bound 25) (option (string_of_size (Gen.int_range 1 50)))))
    (fun ops ->
      Sim.run (fun () ->
          let s = mk_kvell () in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (id, v) ->
              match v with
              | Some v ->
                  Kvell_store.put s (key id) (Bytes.of_string v);
                  Hashtbl.replace model (key id) v
              | None ->
                  Kvell_store.del s (key id);
                  Hashtbl.remove model (key id))
            ops;
          Kvell_store.objects s = Hashtbl.length model
          && List.for_all
               (fun id ->
                 Option.map Bytes.to_string (Kvell_store.get s (key id))
                 = Hashtbl.find_opt model (key id))
               (List.init 26 Fun.id)))

(* --- cluster wrappers --- *)

let test_fawn_cluster_end_to_end () =
  Sim.run (fun () ->
      let cl = Fawn_cluster.create ~config:{ Fawn_cluster.r = 3; nnodes = 5 } () in
      let c = Fawn_cluster.client cl in
      for i = 0 to 29 do
        Fawn_cluster.put c (key i) (Bytes.of_string (string_of_int i))
      done;
      for i = 0 to 29 do
        Alcotest.(check (option string)) "get" (Some (string_of_int i))
          (Option.map Bytes.to_string (Fawn_cluster.get c (key i)))
      done;
      (* R=3 replication: 30 objects stored 3 times. *)
      Alcotest.(check int) "replicated" 90 (Fawn_cluster.total_objects cl);
      (* All 30 writes and 30 reads succeeded: no client-observed nacks,
         and the devices saw real traffic. *)
      let ctrs = Fawn_cluster.counters cl in
      Alcotest.(check int) "no nacks" 0 (Backend.count ctrs "client.nacks");
      Alcotest.(check bool) "nvme writes" true (Backend.count ctrs "blockdev.writes" > 0))

let test_kvell_cluster_end_to_end () =
  Sim.run (fun () ->
      let cl =
        Kvell_cluster.create
          ~config:
            {
              Kvell_cluster.default_config with
              store_config = { Kvell_store.default_config with Kvell_store.slot_size = 512 };
            }
          ()
      in
      let c = Kvell_cluster.client cl in
      for i = 0 to 29 do
        Kvell_cluster.put c (key i) (Bytes.of_string (string_of_int i))
      done;
      for i = 0 to 29 do
        Alcotest.(check (option string)) "get" (Some (string_of_int i))
          (Option.map Bytes.to_string (Kvell_cluster.get c (key i)))
      done;
      Alcotest.(check int) "replicated" 90 (Kvell_cluster.total_objects cl);
      Alcotest.(check int) "no nacks" 0 (Backend.count (Kvell_cluster.counters cl) "client.nacks");
      (* an item larger than a slot is refused by each replica with KErr *)
      Kvell_cluster.put c (key 30) (Bytes.make 512 'x');
      Alcotest.(check int) "oversized put nacked" 3
        (Backend.count (Kvell_cluster.counters cl) "client.nacks");
      Alcotest.(check (option string)) "still serving" (Some "0")
        (Option.map Bytes.to_string (Kvell_cluster.get c (key 0))))

let test_fawn_slower_than_kvell_cluster () =
  (* Sanity on relative platform speed: a Pi-backed FAWN get is much slower
     than a Xeon-backed KVell get. *)
  let fawn_t =
    Sim.run (fun () ->
        let cl = Fawn_cluster.create ~config:{ Fawn_cluster.r = 1; nnodes = 2 } () in
        let c = Fawn_cluster.client cl in
        Fawn_cluster.put c (key 1) (Bytes.make 100 'x');
        let t0 = Sim.now () in
        for _ = 1 to 10 do
          ignore (Fawn_cluster.get c (key 1))
        done;
        (Sim.now () -. t0) /. 10.)
  in
  let kvell_t =
    Sim.run (fun () ->
        let cl =
          Kvell_cluster.create ~config:{ Kvell_cluster.default_config with r = 1; nnodes = 2 } ()
        in
        let c = Kvell_cluster.client cl in
        Kvell_cluster.put c (key 1) (Bytes.make 100 'x');
        let t0 = Sim.now () in
        for _ = 1 to 10 do
          ignore (Kvell_cluster.get c (key 1))
        done;
        (Sim.now () -. t0) /. 10.)
  in
  Alcotest.(check bool)
    (Printf.sprintf "fawn %.0fus > kvell %.0fus" (fawn_t *. 1e6) (kvell_t *. 1e6))
    true (fawn_t > kvell_t)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_baselines"
    [
      ( "fawn",
        [
          Alcotest.test_case "put/get/del" `Quick test_fawn_put_get_del;
          Alcotest.test_case "survives flush" `Quick test_fawn_survives_flush;
          Alcotest.test_case "1 ssd access per get" `Quick test_fawn_one_ssd_access_per_get;
          Alcotest.test_case "index capacity limit" `Quick test_fawn_index_capacity_limit;
          Alcotest.test_case "compaction" `Quick test_fawn_compaction;
          Alcotest.test_case "addressable fraction" `Quick test_fawn_addressable_fraction;
        ] );
      ( "kvell",
        [
          Alcotest.test_case "put/get/del" `Quick test_kvell_put_get_del;
          Alcotest.test_case "many keys across workers" `Quick test_kvell_many_keys_across_workers;
          Alcotest.test_case "slot reuse" `Quick test_kvell_slot_reuse;
          Alcotest.test_case "cache hits" `Quick test_kvell_cache_hits;
          Alcotest.test_case "dram capacity limit" `Quick test_kvell_dram_capacity_limit;
          Alcotest.test_case "failed put stays local" `Quick test_kvell_put_failures_stay_local;
        ] );
      ( "clusters",
        [
          Alcotest.test_case "fawn end-to-end" `Quick test_fawn_cluster_end_to_end;
          Alcotest.test_case "kvell end-to-end" `Quick test_kvell_cluster_end_to_end;
          Alcotest.test_case "fawn slower than kvell" `Quick test_fawn_slower_than_kvell_cluster;
        ] );
      qsuite "properties" [ fawn_model_prop; kvell_model_prop ];
    ]
