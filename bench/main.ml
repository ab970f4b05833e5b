(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §3 for the experiment index), plus Bechamel
   microbenchmarks of the core data structures and the BENCH_*.json
   sweeps that only this harness writes.

   Usage:
     bench/main.exe                 run every paper experiment, then micro
     bench/main.exe fig7 table3     run selected experiments (any name of
                                    Registry.all, failslow included)
     bench/main.exe fast            run everything with shorter windows
     bench/main.exe micro           only the microbenchmarks
     bench/main.exe chaos [seed..]  seeded fault-injection runs (crash-restarts,
                                    partition, SSD degradation) under load, plus
                                    the fail-slow naive-vs-hedged tail comparison;
                                    writes BENCH_chaos.json
     bench/main.exe repl [seed..]   CRRS vs ABD over the same chaos seeds;
                                    writes BENCH_repl.json
     bench/main.exe cache           in-network cache sweep: Zipf theta x
                                    {cache-off+CRRS, cache+CRRS} plus a
                                    flash-crowd scenario; writes BENCH_cache.json
     bench/main.exe cache-validate [file]
                                    check BENCH_cache.json's shape (CI gate)

   Experiment names are resolved before anything runs: an unknown name
   exits 2 and lists the valid ones. An experiment that raises is
   reported and the rest still run, then the harness exits 1. *)

open Leed_experiments

module Json = Leed_trace.Trace.Json

(* --- seeded chaos runs through the fault-injection subsystem --- *)

let chaos ~fast seeds =
  let open Leed_fault.Fault in
  let seeds = if seeds = [] then [ 42 ] else List.map int_of_string seeds in
  let seed_rows =
    List.map
      (fun seed ->
        Printf.printf "== chaos seed %d ==\n%!" seed;
        let wall0 = Unix.gettimeofday () in
        let r = Chaos.run { Chaos.default_config with Chaos.seed } in
        let wall = Unix.gettimeofday () -. wall0 in
        Format.printf "%a@." Chaos.pp_report r;
        if not r.Chaos.ok then exit 1;
        Json.Obj
          [
            ("seed", Json.Int seed);
            ("ops", Json.Int r.Chaos.ops);
            ("failed_ops", Json.Int r.Chaos.failed_ops);
            ("max_outage_s", Json.Num r.Chaos.max_outage);
            ("digest", Json.Str r.Chaos.digest);
            ("ok", Json.Bool r.Chaos.ok);
            ("wall_s", Json.Num wall);
          ])
      seeds
  in
  (* Gray-failure comparison: the fig-failslow triplet (fault-free /
     naive / hedged over one 10x fail-slow schedule), emitted with the
     tail ratios the robustness claim is judged on. *)
  print_endline "== chaos fail-slow: naive vs hedged ==";
  let pts = Fig_failslow.points ~fast () in
  let point_row (p : Fig_failslow.point) =
    let r = p.Fig_failslow.report in
    let module C = Chaos in
    let n = Leed_core.Backend.count r.C.counters in
    let sheds = Leed_core.Backend.sheds r.C.counters in
    let hedge_rate =
      if r.C.reads > 0 then float_of_int (n "client.hedges") /. float_of_int r.C.reads else 0.
    in
    Printf.printf
      "  %-18s get p99 %7.0fus p99.9 %7.0fus  hedges %d (%.1f%% of reads, %d wins)  sheds %d  \
       slow events %d  detection %s\n"
      p.Fig_failslow.label (1e6 *. r.C.get_p99) (1e6 *. r.C.get_p999) (n "client.hedges")
      (100. *. hedge_rate) (n "client.hedge_wins") sheds (n "control.slow_events")
      (if r.C.detection_latency < 0. then "-" else Printf.sprintf "%.2fs" r.C.detection_latency);
    Json.Obj
      [
        ("label", Json.Str p.Fig_failslow.label);
        ("get_p99_s", Json.Num r.C.get_p99);
        ("get_p999_s", Json.Num r.C.get_p999);
        ("hedges", Json.Int (n "client.hedges"));
        ("hedge_wins", Json.Int (n "client.hedge_wins"));
        ("hedge_rate", Json.Num hedge_rate);
        ("sheds", Json.Int sheds);
        ("slow_events", Json.Int (n "control.slow_events"));
        ("detection_latency_s", Json.Num r.C.detection_latency);
        ("ok", Json.Bool r.C.ok);
      ]
  in
  let point_rows = List.map point_row pts in
  let ratios =
    match pts with
    | [ clean; naive; hedged ] ->
        let p999 (p : Fig_failslow.point) = p.Fig_failslow.report.Chaos.get_p999 in
        let r (p : Fig_failslow.point) = if p999 clean > 0. then p999 p /. p999 clean else 0. in
        Printf.printf "  p99.9 vs fault-free: naive %.1fx, hedged %.1fx\n" (r naive) (r hedged);
        [ ("naive_p999_x", Json.Num (r naive)); ("hedged_p999_x", Json.Num (r hedged)) ]
    | _ -> []
  in
  Json.write "BENCH_chaos.json"
    (Json.Obj
       [
         ("bench", Json.Str "chaos");
         ("fast", Json.Bool fast);
         ("seeds", Json.Arr seed_rows);
         ("failslow", Json.Obj (ratios @ [ ("points", Json.Arr point_rows) ]));
       ]);
  Printf.printf "wrote BENCH_chaos.json (%d seeds, %d fail-slow points)\n" (List.length seed_rows)
    (List.length pts);
  if List.exists (fun (p : Fig_failslow.point) -> not p.Fig_failslow.report.Chaos.ok) pts then begin
    prerr_endline "bench chaos: fail-slow run violated a chaos invariant";
    exit 1
  end

(* --- replication protocol comparison: CRRS vs ABD on the same seeds --- *)

let repl ~fast seeds =
  let open Leed_fault.Fault in
  let module R = Leed_core.Replication in
  let seeds = if seeds = [] then [ 42 ] else List.map int_of_string seeds in
  let base = if fast then Chaos.fast_config else Chaos.default_config in
  (* Same seeds, same schedules, same invariants — only the replication
     protocol changes. The row set is the head-to-head the seam exists
     for: hops/write and recovery favour one design, quorum round-trips
     and availability-under-crash the other. *)
  let runs =
    List.concat_map
      (fun proto ->
        List.map
          (fun seed ->
            Printf.printf "== repl %s seed %d ==\n%!" (R.proto_to_string proto) seed;
            let wall0 = Unix.gettimeofday () in
            let r = Chaos.run { base with Chaos.seed; proto } in
            let wall = Unix.gettimeofday () -. wall0 in
            if not r.Chaos.ok then
              Printf.printf "  FAILED: %s\n" (String.concat "," r.Chaos.failed_invariants);
            (proto, seed, r, wall))
          seeds)
      R.all_protos
  in
  let throughput (r : Chaos.report) = float_of_int r.Chaos.ops /. base.Chaos.duration in
  let count (r : Chaos.report) = Leed_core.Backend.count r.Chaos.counters in
  let write_hops (r : Chaos.report) =
    if r.Chaos.writes > 0 then
      float_of_int (count r "node.write_applies") /. float_of_int r.Chaos.writes
    else 0.
  in
  List.iter
    (fun (proto, seed, r, _) ->
      let module C = Chaos in
      Printf.printf
        "  %-4s seed %-3d  %7.0f ops/s  get p99.9 %6.0fus  put p99.9 %6.0fus  hops/write %.2f  \
         recovery %5.2fs  quorum rounds %6d  writebacks %3d  lin %d/%d  %s\n"
        (R.proto_to_string proto) seed (throughput r) (1e6 *. r.C.get_p999)
        (1e6 *. r.C.put_p999) (write_hops r) r.C.max_outage (count r "client.quorum_rounds")
        (count r "client.writebacks")
        r.C.lin_violations r.C.lin_checked_keys
        (if r.C.ok then "ok" else "VIOLATED"))
    runs;
  let row (proto, seed, (r : Chaos.report), wall) =
    let module C = Chaos in
    Json.Obj
      [
        ("proto", Json.Str (R.proto_to_string proto));
        ("seed", Json.Int seed);
        ("ops", Json.Int r.C.ops);
        ("failed_ops", Json.Int r.C.failed_ops);
        ("throughput_ops_s", Json.Num (throughput r));
        ("get_p99_s", Json.Num r.C.get_p99);
        ("get_p999_s", Json.Num r.C.get_p999);
        ("put_p99_s", Json.Num r.C.put_p99);
        ("put_p999_s", Json.Num r.C.put_p999);
        ("write_hops", Json.Num (write_hops r));
        ("recovery_s", Json.Num r.C.max_outage);
        ("quorum_rounds", Json.Int (count r "client.quorum_rounds"));
        ("writebacks", Json.Int (count r "client.writebacks"));
        ("lin_checked_keys", Json.Int r.C.lin_checked_keys);
        ("lin_violations", Json.Int r.C.lin_violations);
        ("failed_invariants", Json.Arr (List.map (fun s -> Json.Str s) r.C.failed_invariants));
        ("ok", Json.Bool r.C.ok);
        ("digest", Json.Str r.C.digest);
        ("wall_s", Json.Num wall);
      ]
  in
  Json.write "BENCH_repl.json"
    (Json.Obj
       [
         ("bench", Json.Str "repl");
         ("fast", Json.Bool fast);
         ("duration_s", Json.Num base.Chaos.duration);
         ("nnodes", Json.Int base.Chaos.nnodes);
         ("r", Json.Int base.Chaos.r);
         ("runs", Json.Arr (List.map row runs));
       ]);
  Printf.printf "wrote BENCH_repl.json (%d protocols x %d seeds)\n" (List.length R.all_protos)
    (List.length seeds);
  if List.exists (fun (_, _, (r : Chaos.report), _) -> not r.Chaos.ok) runs then begin
    prerr_endline "bench repl: a run violated a chaos invariant";
    exit 1
  end

(* --- in-network cache sweep (fig7/fig8-style; DESIGN.md §15) ---

   The LETHE comparison: under growing Zipf skew and under a flash crowd,
   how does switch-resident caching compose with CRRS read-spreading?
   Two configs per traffic point, both with CRRS replica reads on:

     crrs        cache off (the baseline)
     cache+crrs  cache on  (the composition)

   Read-heavy (95/5) so the cache has something to serve while the 5%
   writes keep exercising invalidation. *)

let cache_configs = [ ("crrs", false); ("cache+crrs", true) ]
(* Zipf.create (the YCSB sampler) supports theta in (0,1); the beyond-1
   "extreme skew" regime LETHE targets is covered by the flash-crowd
   scenario instead, which concentrates half the picks on 16 keys. *)
let cache_thetas = [ 0.6; 0.9; 0.99 ]

let cache_bench () =
  let open Leed_sim in
  let open Leed_workload in
  let module Backend = Leed_core.Backend in
  let module Netcache = Leed_core.Netcache in
  print_endline "== In-network cache: Zipf sweep + flash crowd (95/5 read/write, 1KB) ==";
  let nkeys = 4_000 and workers = 128 and window = 0.1 in
  (* Sized for this sweep's traffic (~1M gets/s over 4000 keys): 256
     hash groups see ~40 gets per 10 ms classifier window on average, so
     the warm threshold at 2x average and hot at 6x select the upper
     tail instead of saturating every group; the short window fits
     several rotations even into the scaled-down fast measure window,
     and 4x256 slots hold roughly the keys behind the warm quantile. *)
  let cache_cfg =
    Netcache.enabled
      {
        Netcache.default_config with
        Netcache.instances = 4;
        capacity = 256;
        groups = 256;
        window = 0.01;
        warm_up = 80;
        warm_down = 40;
        hot_up = 240;
        hot_down = 120;
      }
  in
  let cell ~scenario ~theta ~label ~cached =
    let m =
      Sim.run (fun () ->
          let setup =
            Exp_common.make_leed ~nclients:4
              ?cache:(if cached then Some cache_cfg else None)
              ()
          in
          Exp_common.preload setup ~nkeys ~value_size:1008;
          let flash_crowd =
            if scenario = "flash" then
              Some
                {
                  Workload.fc_start = Sim.now () +. Exp_common.dur 0.02;
                  fc_duration = Exp_common.dur 0.05;
                  fc_frac = 0.5;
                  fc_keys = 16;
                }
            else None
          in
          let gen =
            Workload.generator ~object_size:1024 ?flash_crowd
              (Workload.read_write ~read:0.95 ~theta)
              ~nkeys (Rng.create 9)
          in
          Exp_common.measure_closed
            ~label:(Printf.sprintf "%s/%s θ=%.1f" scenario label theta)
            ~setup ~clients:workers ~duration:(Exp_common.dur window) ~gen ())
    in
    Exp_common.report_metrics m;
    let n = Backend.count m.Backend.counters in
    let lookups = n "netcache.hits" + n "netcache.misses" in
    let hit_rate = if lookups > 0 then float_of_int (n "netcache.hits") /. float_of_int lookups else 0. in
    Json.Obj
      [
        ("scenario", Json.Str scenario);
        ("config", Json.Str label);
        ("theta", Json.Num theta);
        ("ops", Json.Int m.Backend.ops);
        ("throughput_ops_s", Json.Num m.Backend.throughput);
        ("p99_s", Json.Num m.Backend.p99);
        ("p999_s", Json.Num m.Backend.p999);
        ("cache_hits", Json.Int (n "netcache.hits"));
        ("cache_misses", Json.Int (n "netcache.misses"));
        ("hit_rate", Json.Num hit_rate);
        ("cache_invalidations", Json.Int (n "netcache.invalidations"));
        ("cache_sprays", Json.Int (n "netcache.sprays"));
        ("cache_hot_keys", Json.Int (n "netcache.hot_groups"));
        ("nvme_accesses", Json.Int (Backend.nvme_accesses m.Backend.counters));
        ("watts", Json.Num m.Backend.watts);
        ("queries_per_joule", Json.Num m.Backend.queries_per_joule);
      ]
  in
  let sweep =
    List.concat_map
      (fun theta ->
        Printf.printf "-- zipf θ=%.1f --\n%!" theta;
        List.map
          (fun (label, cached) -> cell ~scenario:"zipf" ~theta ~label ~cached)
          cache_configs)
      cache_thetas
  in
  (* Flash crowd on moderate base skew: the spike, not the static tail,
     is what concentrates the load here. *)
  print_endline "-- flash crowd (50% of picks on 16 keys) --";
  let flash =
    List.map
      (fun (label, cached) -> cell ~scenario:"flash" ~theta:0.9 ~label ~cached)
      cache_configs
  in
  Json.write "BENCH_cache.json"
    (Json.Obj
       [
         ("bench", Json.Str "cache");
         ("workload", Json.Str "95/5 read/write, 1KB");
         ("nkeys", Json.Int nkeys);
         ("thetas", Json.Arr (List.map (fun t -> Json.Num t) cache_thetas));
         ("results", Json.Arr (sweep @ flash));
       ]);
  Printf.printf "wrote BENCH_cache.json (%d rows)\n" (List.length sweep + List.length flash)

(* Shape check for the CI gate: parse BENCH_cache.json back (through the
   trace module's JSON parser, the repo's only reader) and check that
   every (scenario x config) cell is present, all metrics are finite,
   and the armed configs actually hit in the cache somewhere. *)
let cache_validate file =
  let module J = Leed_trace.Trace.Json in
  let fail msg =
    Printf.eprintf "%s: %s\n" file msg;
    exit 1
  in
  let contents =
    match In_channel.with_open_bin file In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail e
  in
  match J.parse contents with
  | Error e -> fail ("parse error: " ^ e)
  | Ok (J.Obj fields) ->
      let str_field name = function
        | J.Obj fs -> (match List.assoc_opt name fs with Some (J.Str s) -> Some s | _ -> None)
        | _ -> None
      in
      let num_field name = function
        | J.Obj fs -> (
            match List.assoc_opt name fs with Some (J.Num n) -> Some n | _ -> None)
        | _ -> None
      in
      if List.assoc_opt "bench" fields <> Some (J.Str "cache") then
        fail "bench field is not \"cache\"";
      let rows =
        match List.assoc_opt "results" fields with
        | Some (J.Arr rows) -> rows
        | _ -> fail "missing results array"
      in
      if rows = [] then fail "empty results array";
      let configs = List.map fst cache_configs in
      let required =
        [ "theta"; "ops"; "throughput_ops_s"; "p99_s"; "p999_s"; "cache_hits"; "cache_misses";
          "hit_rate"; "cache_invalidations"; "cache_sprays"; "cache_hot_keys"; "nvme_accesses";
          "watts"; "queries_per_joule" ]
      in
      List.iteri
        (fun i row ->
          (match str_field "scenario" row with
          | Some ("zipf" | "flash") -> ()
          | Some s -> fail (Printf.sprintf "row %d: unknown scenario %S" i s)
          | None -> fail (Printf.sprintf "row %d: missing scenario" i));
          (match str_field "config" row with
          | Some c when List.mem c configs -> ()
          | Some c -> fail (Printf.sprintf "row %d: unknown config %S" i c)
          | None -> fail (Printf.sprintf "row %d: missing config" i));
          List.iter
            (fun f ->
              match num_field f row with
              | Some n when Float.is_finite n && n >= 0. -> ()
              | Some _ -> fail (Printf.sprintf "row %d: non-finite or negative %s" i f)
              | None -> fail (Printf.sprintf "row %d: missing numeric field %s" i f))
            required;
          if num_field "throughput_ops_s" row = Some 0. then
            fail (Printf.sprintf "row %d: zero throughput" i);
          (* cache-off rows must not report cache traffic *)
          if str_field "config" row = Some "crrs" && num_field "cache_hits" row <> Some 0. then
            fail (Printf.sprintf "row %d: cache-off config reports cache hits" i))
        rows;
      List.iter
        (fun scenario ->
          List.iter
            (fun c ->
              if
                not
                  (List.exists
                     (fun row ->
                       str_field "scenario" row = Some scenario && str_field "config" row = Some c)
                     rows)
              then fail (Printf.sprintf "no %s rows for config %S" scenario c))
            configs)
        [ "zipf"; "flash" ];
      if
        not
          (List.exists
             (fun row ->
               str_field "config" row <> Some "crrs"
               && match num_field "cache_hits" row with Some h -> h > 0. | None -> false)
             rows)
      then fail "no armed config ever hit in the cache";
      Printf.printf "%s: ok (%d rows, %d configs)\n" file (List.length rows)
        (List.length configs)
  | Ok _ -> fail "top level is not an object"

(* --- Bechamel microbenchmarks of the core data structures --- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let key i = Leed_workload.Workload.key_of_id i in
  let bucket =
    let items =
      List.init 14 (fun i -> { Leed_core.Codec.key = key i; vlen = 1008; voff = i * 1044; vdev = 0 })
    in
    {
      Leed_core.Codec.bindex = 42;
      chain_len = 1;
      chain_pos = 0;
      seg_id = 7;
      log_head = 0;
      log_tail = 0;
      items;
    }
  in
  let encoded = Leed_core.Codec.encode_bucket bucket in
  let btree =
    let t = Leed_baselines.Btree.create ~dummy:0 () in
    for i = 0 to 9_999 do
      Leed_baselines.Btree.insert t (key i) i
    done;
    t
  in
  let ring =
    let r = Leed_core.Ring.create () in
    for n = 0 to 9 do
      for v = 0 to 7 do
        let e = Leed_core.Ring.add r { Leed_core.Ring.node = n; vidx = v } in
        e.Leed_core.Ring.vstate <- Leed_core.Ring.Running
      done
    done;
    r
  in
  let zipf = Leed_workload.Zipf.create ~theta:0.99 ~n:1_000_000 (Leed_sim.Rng.create 1) in
  let hist = Leed_stats.Histogram.create () in
  let rng = Leed_sim.Rng.create 2 in
  let i = ref 0 in
  let tests =
    Test.make_grouped ~name:"core" ~fmt:"%s.%s"
      [
        Test.make ~name:"codec.encode_bucket"
          (Staged.stage (fun () -> ignore (Leed_core.Codec.encode_bucket bucket)));
        Test.make ~name:"codec.decode_bucket"
          (Staged.stage (fun () -> ignore (Leed_core.Codec.decode_bucket encoded)));
        Test.make ~name:"codec.hash_key"
          (Staged.stage (fun () -> ignore (Leed_core.Codec.hash_key "k000000000012345")));
        Test.make ~name:"btree.find-10k"
          (Staged.stage (fun () ->
               incr i;
               ignore (Leed_baselines.Btree.find btree (key (!i mod 10_000)))));
        Test.make ~name:"btree.insert-10k"
          (Staged.stage (fun () ->
               incr i;
               Leed_baselines.Btree.insert btree (key (!i mod 10_000)) !i));
        Test.make ~name:"ring.chain-r3"
          (Staged.stage (fun () ->
               incr i;
               ignore (Leed_core.Ring.chain ring ~r:3 (key (!i mod 50_000)))));
        Test.make ~name:"zipf.sample-1M"
          (Staged.stage (fun () -> ignore (Leed_workload.Zipf.next_scrambled zipf)));
        Test.make ~name:"histogram.record"
          (Staged.stage (fun () -> Leed_stats.Histogram.record hist (Leed_sim.Rng.float rng)));
      ]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  print_newline ();
  print_endline "== Microbenchmarks (monotonic clock, OLS ns/op) ==";
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns = match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, ns) -> Printf.printf "  %-28s %10.1f ns/op\n" name ns) rows

(* Run one experiment and report whether it finished; a raise is
   printed, not propagated, so the experiments after it still run. *)
let run_experiment (name, f) =
  let t0 = Unix.gettimeofday () in
  Printf.printf "\n######## %s ########\n%!" name;
  let ok =
    match f () with
    | () -> true
    | exception e ->
        Printf.printf "!! %s failed: %s\n%!" name (Printexc.to_string e);
        false
  in
  Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0);
  ok

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let fast = List.mem "fast" args || List.mem "--fast" args in
  if fast then Exp_common.time_scale := 0.3;
  let selected = List.filter (fun a -> a <> "fast" && a <> "--fast") args in
  match selected with
  | "chaos" :: rest -> chaos ~fast rest
  | "repl" :: rest -> repl ~fast rest
  | "cache" :: _ -> cache_bench ()
  | "cache-validate" :: rest ->
      cache_validate (match rest with f :: _ -> f | [] -> "BENCH_cache.json")
  | _ ->
      let to_run =
        match List.filter (fun a -> a <> "micro") selected with
        | [] -> if selected = [] then Registry.paper else []
        | names -> (
            match Registry.resolve names with
            | Ok entries -> entries
            | Error unknown ->
                Printf.eprintf "unknown experiment %s; valid names: %s, micro\n"
                  (String.concat ", " unknown)
                  (String.concat ", " (List.map fst Registry.all));
                exit 2)
      in
      let all_ok = List.fold_left (fun ok e -> run_experiment e && ok) true to_run in
      if selected = [] || List.mem "micro" selected then micro ();
      if not all_ok then exit 1
