(* Tests for platform/power models and the YCSB workload generators. *)

open Leed_sim
open Leed_platform
open Leed_workload

(* --- Platform --- *)

let test_skewness_ordering () =
  (* Table 1: flash:DRAM skewness — embedded 16-32x, server ~64x,
     SmartNIC ~512-1024x. The ordering and rough magnitudes must hold. *)
  let e = Platform.skewness Platform.embedded_node in
  let s = Platform.skewness Platform.server_jbof in
  let j = Platform.skewness Platform.smartnic_jbof in
  Alcotest.(check bool) (Printf.sprintf "embedded %.0f < server %.0f" e s) true (e < s);
  Alcotest.(check bool) (Printf.sprintf "server %.0f < smartnic %.0f" s j) true (s < j);
  Alcotest.(check bool) "smartnic skew >= 256" true (j >= 256.)

let test_power_model () =
  let p = Platform.wall_power Platform.smartnic_jbof ~util:0.5 in
  (* Polling platform: near max regardless of load. *)
  Alcotest.(check (float 0.01)) "smartnic polls" 52.5 p;
  let pi_idle = Platform.wall_power Platform.embedded_node ~util:0. in
  let pi_busy = Platform.wall_power Platform.embedded_node ~util:1. in
  Alcotest.(check (float 0.01)) "pi idle" 3.6 pi_idle;
  Alcotest.(check (float 0.01)) "pi busy" 4.2 pi_busy

let test_cycles_model () =
  (* The same work takes longer on the Pi than on the Stingray, and longer
     on the Stingray than on the Xeon. *)
  let c = 30_000. in
  let pi = Platform.seconds_of_cycles Platform.embedded_node c in
  let sn = Platform.seconds_of_cycles Platform.smartnic_jbof c in
  let xeon = Platform.seconds_of_cycles Platform.server_jbof c in
  Alcotest.(check bool) "pi slowest" true (pi > sn && sn > xeon)

let test_cpu_pool_contention () =
  (* 8 cores; 16 jobs of 1 ms of cycles each should take ~2 ms. *)
  let t =
    Sim.run (fun () ->
        let cpu = Platform.Cpu.create Platform.smartnic_jbof in
        let cycles = 1e-3 *. 3e9 in
        Sim.fork_join (List.init 16 (fun _ () -> Platform.Cpu.execute cpu ~cycles));
        Sim.now ())
  in
  Alcotest.(check (float 1e-4)) "makespan" 2e-3 t

(* --- Zipf --- *)

let test_zipf_rank0_hottest () =
  Sim.run (fun () ->
      let z = Zipf.create ~theta:0.99 ~n:1000 (Rng.create 42) in
      let counts = Array.make 1000 0 in
      for _ = 1 to 100_000 do
        let r = Zipf.next z in
        counts.(r) <- counts.(r) + 1
      done;
      Alcotest.(check bool) "rank 0 most frequent" true (counts.(0) = Array.fold_left max 0 counts);
      (* Zipf(0.99): rank 0 should take a large share. *)
      Alcotest.(check bool)
        (Printf.sprintf "rank0 share %.3f > 0.05" (float_of_int counts.(0) /. 100_000.))
        true
        (counts.(0) > 5_000))

let test_zipf_low_theta_flatter () =
  Sim.run (fun () ->
      let share theta =
        let z = Zipf.create ~theta ~n:1000 (Rng.create 7) in
        let hot = ref 0 in
        for _ = 1 to 50_000 do
          if Zipf.next z = 0 then incr hot
        done;
        float_of_int !hot /. 50_000.
      in
      let low = share 0.1 and high = share 0.99 in
      Alcotest.(check bool) (Printf.sprintf "0.1 share %.4f < 0.99 share %.4f" low high) true (low < high))

(* Bit-level equality, so that -0. vs 0. or a last-digit slip shows. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_zeta_table_exact () =
  List.iter
    (fun (n, theta, z) ->
      let loop = Zipf.zeta_sum n theta in
      if not (same_bits z loop) then
        Alcotest.failf "zeta_table (%d, %g): %h, but zeta_sum gives %h (paste that literal)" n
          theta z loop;
      if not (same_bits (Zipf.zeta n theta) z) then
        Alcotest.failf "Zipf.zeta %d %g does not return its table entry" n theta)
    Zipf.zeta_table

let test_zeta_sweep_tabulated () =
  List.iter
    (fun theta ->
      let tabulated =
        List.exists
          (fun (n, t, _) -> n = Workload.virtual_ranks && Float.equal t theta)
          Zipf.zeta_table
      in
      if not tabulated then
        Alcotest.failf "theta %g has no zeta_table entry at n = %d" theta Workload.virtual_ranks)
    (Workload.default_theta :: Workload.skew_sweep)

let test_zeta_fallback () =
  (* One pair whose theta is tabulated and one whose n is, so a lookup
     that matches on either key alone returns a wrong constant. *)
  List.iter
    (fun (n, theta) ->
      let z = Zipf.zeta n theta and loop = Zipf.zeta_sum n theta in
      if not (same_bits z loop) then
        Alcotest.failf "Zipf.zeta %d %g = %h, zeta_sum = %h" n theta z loop)
    [ (1000, 0.99); (Workload.virtual_ranks, 0.8) ]

(* Known answers: the first draws of three generators, recorded with
   zeta summed by the loop. The two at 10 M ranks now read it from the
   table. Each list is 12 [next] ranks, then 12 [next_scrambled]. *)
let test_zipf_known_draws () =
  let draws ~n ~theta ~seed =
    let z = Zipf.create ~theta ~n (Rng.create seed) in
    let ranks = List.init 12 (fun _ -> Zipf.next z) in
    ranks @ List.init 12 (fun _ -> Zipf.next_scrambled z)
  in
  Alcotest.(check (list int))
    "n=1000 theta=0.99"
    [ 46; 1; 1; 0; 866; 2; 3; 1; 164; 2; 169; 425; 571; 601; 601; 328; 601; 305; 601; 122; 896;
      305; 593; 106 ]
    (draws ~n:1000 ~theta:0.99 ~seed:42);
  Alcotest.(check (list int))
    "n=10M theta=0.99"
    [ 14971; 8; 8; 0; 7411211; 30; 66; 7; 223091; 35; 237103; 1669571; 4487202; 8646249; 543601;
      2554178; 8646249; 2018991; 4338305; 2818720; 1000510; 6326934; 8450660; 3198390 ]
    (draws ~n:10_000_000 ~theta:0.99 ~seed:42);
  Alcotest.(check (list int))
    "n=10M theta=0.5"
    [ 2750271; 913627; 8854935; 7801305; 4405602; 1188339; 1588688; 3657437; 6584249; 76809;
      8325256; 290116; 8481158; 8485635; 4603848; 2869988; 1775001; 4241201; 8953321; 6582613;
      1206217; 2803986; 3628718; 7793020 ]
    (draws ~n:10_000_000 ~theta:0.5 ~seed:7)

let zipf_in_range =
  QCheck.Test.make ~name:"zipf ranks within [0,n)" ~count:50
    QCheck.(pair (int_range 1 10_000) (int_range 0 1000))
    (fun (n, seed) ->
      let z = Zipf.create ~theta:0.9 ~n (Rng.create seed) in
      let ok = ref true in
      for _ = 1 to 200 do
        let r = Zipf.next z in
        if r < 0 || r >= n then ok := false;
        let s = Zipf.next_scrambled z in
        if s < 0 || s >= n then ok := false
      done;
      !ok)

(* --- Workload --- *)

let test_mix_ratios () =
  Sim.run (fun () ->
      let g = Workload.generator (Workload.ycsb_b ()) ~nkeys:10_000 (Rng.create 3) in
      let reads = ref 0 and writes = ref 0 in
      for _ = 1 to 20_000 do
        match Workload.next g with
        | Workload.Read _ -> incr reads
        | Workload.Update _ | Workload.Insert _ | Workload.Read_modify_write _ -> incr writes
      done;
      let frac = float_of_int !reads /. 20_000. in
      Alcotest.(check bool) (Printf.sprintf "read frac %.3f ~ 0.95" frac) true (frac > 0.93 && frac < 0.97))

let test_ycsb_c_read_only () =
  Sim.run (fun () ->
      let g = Workload.generator (Workload.ycsb_c ()) ~nkeys:1000 (Rng.create 3) in
      for _ = 1 to 1000 do
        match Workload.next g with
        | Workload.Read _ -> ()
        | _ -> Alcotest.fail "YCSB-C must be read-only"
      done)

let test_ycsb_wr_write_only () =
  Sim.run (fun () ->
      let g = Workload.generator (Workload.ycsb_wr ()) ~nkeys:1000 (Rng.create 3) in
      for _ = 1 to 1000 do
        match Workload.next g with
        | Workload.Update _ -> ()
        | _ -> Alcotest.fail "YCSB-WR must be update-only"
      done)

let test_value_roundtrip () =
  let v = Workload.value_for ~id:123 ~version:7 ~size:240 in
  Alcotest.(check int) "size" 240 (Bytes.length v);
  Alcotest.(check bool) "matches" true (Workload.value_matches ~id:123 ~version:7 v);
  Alcotest.(check bool) "wrong version" false (Workload.value_matches ~id:123 ~version:8 v)

let test_key_id_roundtrip () =
  for id = 0 to 100 do
    let k = Workload.key_of_id id in
    Alcotest.(check int) "roundtrip" id (Workload.id_of_key k);
    Alcotest.(check int) "fixed width" Workload.key_size (String.length k)
  done

(* The hand formatters against their Printf definitions, on the digit
   boundaries, the widest 15-digit key, the Printf fallbacks (a 16-digit
   id, max_int, negatives) and tags clipped by a [size] shorter than the
   tag. *)
let test_formatting_matches_printf () =
  let ref_key id = Printf.sprintf "k%015d" id in
  let ref_tag id version = Printf.sprintf "v%d:%d;" id version in
  let ref_value ~id ~version ~size =
    let b = Bytes.make size '.' in
    let tag = ref_tag id version in
    Bytes.blit_string tag 0 b 0 (min (String.length tag) size);
    b
  in
  let ref_matches ~id ~version v =
    let tag = ref_tag id version in
    Bytes.length v >= String.length tag
    && String.equal (Bytes.sub_string v 0 (String.length tag)) tag
  in
  let wide = 1_000_000_000_000_000 in
  let ids = [ 0; 9; 10; 99; 100; 99_999; wide - 1; wide; max_int; -1; -12 ] in
  let versions = [ 0; 1; 9; 10; 12_345; -3 ] in
  List.iter
    (fun id ->
      Alcotest.(check string) (Printf.sprintf "key_of_id %d" id) (ref_key id) (Workload.key_of_id id);
      List.iter
        (fun version ->
          List.iter
            (fun size ->
              let what = Printf.sprintf "id %d version %d size %d" id version size in
              let v = Workload.value_for ~id ~version ~size in
              Alcotest.(check string) ("value_for " ^ what)
                (Bytes.to_string (ref_value ~id ~version ~size))
                (Bytes.to_string v);
              (* Matching against this and neighbouring (id, version)s,
                 so prefixes, digit counts and separators all mismatch. *)
              List.iter
                (fun (id', version') ->
                  Alcotest.(check bool)
                    (Printf.sprintf "value_matches %d:%d on %s" id' version' what)
                    (ref_matches ~id:id' ~version:version' v)
                    (Workload.value_matches ~id:id' ~version:version' v))
                [ (id, version); (id, version + 1); (id + 1, version); (id * 10, version);
                  (id, version * 10); (id / 10, version) ];
              (* Every single-byte corruption of the tag region. *)
              for p = 0 to min size 48 - 1 do
                List.iter
                  (fun c ->
                    let v' = Bytes.copy v in
                    Bytes.set v' p c;
                    Alcotest.(check bool)
                      (Printf.sprintf "value_matches with byte %d = %C on %s" p c what)
                      (ref_matches ~id ~version v')
                      (Workload.value_matches ~id ~version v'))
                  [ 'x'; '0'; ':'; ';' ]
              done)
            [ 0; 1; 3; 5; 8; 40; 1008 ])
        versions)
    ids

let test_object_size_split () =
  Sim.run (fun () ->
      let g = Workload.generator ~object_size:256 (Workload.ycsb_wr ()) ~nkeys:10 (Rng.create 1) in
      Alcotest.(check int) "value size" (256 - Workload.key_size) (Workload.value_size g);
      match Workload.next g with
      | Workload.Update (k, v) ->
          Alcotest.(check int) "object size" 256 (String.length k + Bytes.length v)
      | _ -> Alcotest.fail "expected update")

let test_latest_distribution_prefers_recent () =
  Sim.run (fun () ->
      let g = Workload.generator (Workload.ycsb_d ()) ~nkeys:10_000 (Rng.create 11) in
      (* Run some inserts so 'latest' has a moving head. *)
      let recent_hits = ref 0 and total_reads = ref 0 in
      for _ = 1 to 20_000 do
        match Workload.next g with
        | Workload.Read k ->
            incr total_reads;
            let id = Workload.id_of_key k in
            (* "recent" = within the last 10% of the key space behind the
               (moving) insertion head *)
            let head = Workload.inserted_count g mod 10_000 in
            let dist = ((head - id) mod 10_000 + 10_000) mod 10_000 in
            if dist < 1000 then incr recent_hits
        | _ -> ()
      done;
      let frac = float_of_int !recent_hits /. float_of_int !total_reads in
      Alcotest.(check bool) (Printf.sprintf "recent frac %.3f > 0.5" frac) true (frac > 0.5))

let test_closed_loop_driver () =
  let r =
    Sim.run (fun () ->
        let g = Workload.generator (Workload.ycsb_c ()) ~nkeys:100 (Rng.create 5) in
        Workload.Driver.closed_loop ~clients:4 ~duration:1.0 ~gen:g
          ~execute:(fun _ -> Sim.delay 0.01)
          ())
  in
  (* 4 clients, 10 ms per op, 1 s => ~400 ops *)
  Alcotest.(check bool)
    (Printf.sprintf "ops %d ~ 400" r.Workload.Driver.ops)
    true
    (r.Workload.Driver.ops >= 396 && r.Workload.Driver.ops <= 404);
  Alcotest.(check bool) "latency ~10ms" true
    (abs_float (Leed_stats.Histogram.mean r.Workload.Driver.latency -. 0.01) < 1e-3)

let test_open_loop_driver () =
  let r =
    Sim.run (fun () ->
        let g = Workload.generator (Workload.ycsb_c ()) ~nkeys:100 (Rng.create 5) in
        Workload.Driver.open_loop ~rate:1000. ~duration:1.0 ~gen:g
          ~execute:(fun _ -> Sim.delay 0.001)
          ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "ops %d ~ 1000" r.Workload.Driver.ops)
    true
    (r.Workload.Driver.ops > 850 && r.Workload.Driver.ops < 1150)

(* --- Driver --- *)

(* Worker [w] sleeps [w + 1] ms per call, so the call counts differ per
   worker and a shifted index shows up as a missing or extra worker. *)
let test_closed_worker_indices () =
  let workers = 5 in
  let calls = Array.make workers 0 in
  let r =
    Sim.run (fun () ->
        Workload.Driver.closed ~workers ~duration:0.1 (fun w ->
            calls.(w) <- calls.(w) + 1;
            Sim.delay (1e-3 *. float_of_int (w + 1))))
  in
  Array.iteri
    (fun w n -> Alcotest.(check bool) (Printf.sprintf "worker %d called (%d)" w n) true (n > 0))
    calls;
  Alcotest.(check int) "ops = calls" (Array.fold_left ( + ) 0 calls) r.Workload.Driver.ops

(* A seeded YCSB-B stream against a delay-only execute: the op count and
   the exact bits of throughput and mean latency, as recorded before
   [closed_loop] became a wrapper over [closed]. *)
let test_closed_loop_known_answer () =
  let r =
    Sim.run (fun () ->
        let gen = Workload.generator (Workload.ycsb_b ()) ~nkeys:1_000 (Rng.create 7) in
        let execute = function
          | Workload.Read k -> Sim.delay (1e-4 *. float_of_int (1 + (Workload.id_of_key k mod 7)))
          | _ -> Sim.delay 3e-4
        in
        Workload.Driver.closed_loop ~clients:8 ~duration:0.05 ~gen ~execute ())
  in
  Alcotest.(check int) "ops" 979 r.Workload.Driver.ops;
  Alcotest.(check string) "throughput" "0x1.2f8269a69a697p+14"
    (Printf.sprintf "%h" r.Workload.Driver.throughput);
  Alcotest.(check string) "mean latency" "0x1.aded4765acfe4p-12"
    (Printf.sprintf "%h" (Leed_stats.Histogram.mean r.Workload.Driver.latency))

(* Worker [w] makes exactly [ops] calls whatever its call takes: the
   per-worker delays differ, so a duration-style stop would give unequal
   counts. *)
let test_fixed_call_counts () =
  let workers = 4 and ops = 7 in
  let calls = Array.make workers 0 in
  let r =
    Sim.run (fun () ->
        Workload.Driver.fixed ~workers ~ops (fun w ->
            calls.(w) <- calls.(w) + 1;
            Sim.delay (1e-3 *. float_of_int (w + 1))))
  in
  Alcotest.(check (array int)) "calls per worker" (Array.make workers ops) calls;
  Alcotest.(check int) "ops = workers * ops" (workers * ops) r.Workload.Driver.ops;
  Alcotest.(check int) "latency samples" (workers * ops)
    (Leed_stats.Histogram.count r.Workload.Driver.latency);
  Alcotest.(check int) "nothing shed" 0 r.Workload.Driver.shed

(* The labels the dispatch hook sees while [drive] runs its workers,
   other than the main process's; an unlabelled worker inherits that. *)
let worker_labels drive =
  let labels = ref [] in
  Sim.run
    ~on_dispatch:(fun d -> labels := d.Sim.d_label :: !labels)
    (fun () -> ignore (drive (fun _ -> Sim.delay 1e-3)));
  List.sort_uniq String.compare (List.filter (fun l -> l <> "main") !labels)

let test_worker_labels () =
  Alcotest.(check (list string))
    "fixed ~label" [ "x:w0"; "x:w1"; "x:w2" ]
    (worker_labels (Workload.Driver.fixed ~label:"x" ~workers:3 ~ops:2));
  Alcotest.(check (list string))
    "closed ~label" [ "y:w0"; "y:w1" ]
    (worker_labels (Workload.Driver.closed ~label:"y" ~workers:2 ~duration:0.01));
  Alcotest.(check (list string))
    "unlabelled" [] (worker_labels (Workload.Driver.fixed ~workers:3 ~ops:2))

let op_name = function
  | Workload.Read k -> "R" ^ k
  | Workload.Update (k, v) | Workload.Insert (k, v) | Workload.Read_modify_write (k, v) ->
      "W" ^ k ^ Bytes.to_string v

(* The ops [open_loop] issues, in issue order, from a seeded YCSB-A
   stream at 10 K arrivals/s for 50 ms; each takes [service] seconds. *)
let open_ops ?window ~service () =
  let issued = ref [] and inflight = ref 0 and peak = ref 0 in
  let r =
    Sim.run (fun () ->
        let gen = Workload.generator (Workload.ycsb_a ()) ~nkeys:1_000 (Rng.create 11) in
        Workload.Driver.open_loop ?window ~rate:10_000. ~duration:0.05 ~gen
          ~execute:(fun op ->
            issued := op_name op :: !issued;
            incr inflight;
            peak := max !peak !inflight;
            Sim.delay service;
            decr inflight)
          ())
  in
  (r, List.rev !issued, !peak)

(* A window of 8 against ~20 requests' worth of concurrency: the window
   fills, never overflows, every arrival is either completed or shed,
   and a shed arrival draws nothing from the generator, so the issued
   ops are a prefix of the unwindowed stream. *)
let test_open_loop_window () =
  let all, stream, _ = open_ops ~service:0. () in
  let r, issued, peak = open_ops ~window:8 ~service:2e-3 () in
  Alcotest.(check int) "unwindowed sheds nothing" 0 all.Workload.Driver.shed;
  Alcotest.(check int) "peak in flight = window" 8 peak;
  Alcotest.(check bool)
    (Printf.sprintf "some shed (%d)" r.Workload.Driver.shed)
    true (r.Workload.Driver.shed > 0);
  Alcotest.(check int) "ops + shed = arrivals" all.Workload.Driver.ops
    (r.Workload.Driver.ops + r.Workload.Driver.shed);
  Alcotest.(check (list string))
    "issued ops are the stream's prefix"
    (List.filteri (fun i _ -> i < List.length issued) stream)
    issued

(* The unwindowed open loop on the seeded YCSB-B stream of
   [test_closed_loop_known_answer]: ops and the exact bits of throughput
   and mean latency, as recorded before [open_loop] gained [?window]
   (the hotspot-open benchmark runs this path). *)
let test_open_loop_known_answer () =
  let r =
    Sim.run (fun () ->
        let gen = Workload.generator (Workload.ycsb_b ()) ~nkeys:1_000 (Rng.create 7) in
        let execute = function
          | Workload.Read k -> Sim.delay (1e-4 *. float_of_int (1 + (Workload.id_of_key k mod 7)))
          | _ -> Sim.delay 3e-4
        in
        Workload.Driver.open_loop ~rate:20_000. ~duration:0.05 ~gen ~execute ())
  in
  Alcotest.(check int) "ops" 1008 r.Workload.Driver.ops;
  Alcotest.(check string) "throughput" "0x1.3bp+14" (Printf.sprintf "%h" r.Workload.Driver.throughput);
  Alcotest.(check string) "mean latency" "0x1.abdb40c67afdcp-12"
    (Printf.sprintf "%h" (Leed_stats.Histogram.mean r.Workload.Driver.latency))

(* Every [f id] takes 1 s, so the ids a step visits are one per worker:
   step [j] holds the [j]-th id of every worker's range that long. *)
let spread_steps ~workers ~n =
  let visits = ref [] in
  Sim.run (fun () ->
      Workload.Driver.spread ~workers ~n (fun id ->
          visits := (int_of_float (Sim.now ()), id) :: !visits;
          Sim.delay 1.0));
  let steps = 1 + List.fold_left (fun acc (t, _) -> max acc t) 0 !visits in
  List.init steps (fun t ->
      List.sort compare (List.filter_map (fun (t', id) -> if t' = t then Some id else None) !visits))

let test_spread_ranges () =
  (* n = 10 over 4 workers: [0,2) [2,5) [5,7) [7,10). *)
  Alcotest.(check (list (list int))) "n=10 W=4"
    [ [ 0; 2; 5; 7 ]; [ 1; 3; 6; 8 ]; [ 4; 9 ] ]
    (spread_steps ~workers:4 ~n:10);
  (* More workers than ids: some ranges are empty, each id still once. *)
  Alcotest.(check (list (list int))) "n=3 W=5" [ [ 0; 1; 2 ] ] (spread_steps ~workers:5 ~n:3)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_platform_workload"
    [
      ( "platform",
        [
          Alcotest.test_case "skewness ordering" `Quick test_skewness_ordering;
          Alcotest.test_case "power model" `Quick test_power_model;
          Alcotest.test_case "cycles model" `Quick test_cycles_model;
          Alcotest.test_case "cpu pool contention" `Quick test_cpu_pool_contention;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "rank0 hottest" `Quick test_zipf_rank0_hottest;
          Alcotest.test_case "low theta flatter" `Quick test_zipf_low_theta_flatter;
          Alcotest.test_case "zeta table equals loop" `Quick test_zeta_table_exact;
          Alcotest.test_case "sweep skews tabulated" `Quick test_zeta_sweep_tabulated;
          Alcotest.test_case "zeta fallback equals loop" `Quick test_zeta_fallback;
          Alcotest.test_case "known draws" `Quick test_zipf_known_draws;
        ] );
      ( "workload",
        [
          Alcotest.test_case "mix ratios" `Quick test_mix_ratios;
          Alcotest.test_case "ycsb-c read-only" `Quick test_ycsb_c_read_only;
          Alcotest.test_case "ycsb-wr write-only" `Quick test_ycsb_wr_write_only;
          Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "key id roundtrip" `Quick test_key_id_roundtrip;
          Alcotest.test_case "formatting matches Printf" `Quick test_formatting_matches_printf;
          Alcotest.test_case "object size split" `Quick test_object_size_split;
          Alcotest.test_case "latest prefers recent" `Quick test_latest_distribution_prefers_recent;
          Alcotest.test_case "closed-loop driver" `Quick test_closed_loop_driver;
          Alcotest.test_case "open-loop driver" `Quick test_open_loop_driver;
        ] );
      ( "driver",
        [
          Alcotest.test_case "closed calls every worker" `Quick test_closed_worker_indices;
          Alcotest.test_case "closed_loop known answer" `Quick test_closed_loop_known_answer;
          Alcotest.test_case "fixed calls each worker ops times" `Quick test_fixed_call_counts;
          Alcotest.test_case "worker labels" `Quick test_worker_labels;
          Alcotest.test_case "open_loop window sheds" `Quick test_open_loop_window;
          Alcotest.test_case "open_loop known answer" `Quick test_open_loop_known_answer;
          Alcotest.test_case "spread covers each id once" `Quick test_spread_ranges;
        ] );
      qsuite "properties" [ zipf_in_range ];
    ]
