(* The `leed` command-line tool: inspect the modeled platforms, run a
   quick cluster smoke test, or regenerate a single paper experiment.

   Examples:
     dune exec bin/leed.exe -- platforms
     dune exec bin/leed.exe -- smoke
     dune exec bin/leed.exe -- experiment fig7 --fast *)

open Cmdliner
open Leed_platform

let platforms_cmd =
  let run () =
    let open Leed_stats.Report in
    let row (p : Platform.t) =
      [
        p.Platform.name;
        Printf.sprintf "%dx%.1fGHz" p.Platform.cpu.Platform.cores p.Platform.cpu.Platform.ghz;
        Printf.sprintf "%dGB" (p.Platform.dram_bytes / (1 lsl 30));
        Printf.sprintf "%.0fGbE" p.Platform.nic_gbps;
        Printf.sprintf "%dx %s" p.Platform.ssd_count p.Platform.ssd.Leed_blockdev.Blockdev.name;
        Printf.sprintf "%.1fW" p.Platform.active_watts;
        Printf.sprintf "%.0fx" (Platform.skewness p);
      ]
    in
    table ~title:"Modeled platforms (paper testbed, §2.1/§4.1)"
      ~columns:[ "platform"; "cpu"; "dram"; "nic"; "storage"; "active power"; "flash:DRAM" ]
      [ row Platform.embedded_node; row Platform.server_jbof; row Platform.smartnic_jbof ]
  in
  Cmd.v (Cmd.info "platforms" ~doc:"Show the three modeled platforms") Term.(const run $ const ())

let smoke_cmd =
  let backend_names = Leed_experiments.Exp_common.backend_names in
  let backend =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) backend_names)) "leed"
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:"System to smoke-test (leed, fawn, or kvell), all through the same KV interface.")
  in
  let jbofs =
    Arg.(
      value & opt (some int) None
      & info [ "jbofs" ] ~docv:"N" ~doc:"Cluster size in JBOFs (nodes); default per backend.")
  in
  let ssds =
    Arg.(
      value & opt (some int) None
      & info [ "ssds" ] ~docv:"N"
          ~doc:"Drives per JBOF (ignored by fawn, whose nodes model one flash device).")
  in
  let objects =
    Arg.(
      value & opt int 500 & info [ "objects" ] ~docv:"N" ~doc:"Objects to put and get back.")
  in
  let run backend_name jbofs ssds objects =
    let open Leed_sim in
    let open Leed_core in
    Sim.run (fun () ->
        let setup =
          Leed_experiments.Exp_common.setup_of_name ~nclients:1 ?nnodes:jbofs ?ssds backend_name
        in
        let client = List.hd setup.Leed_experiments.Exp_common.clients in
        let n = max 1 objects in
        let t0 = Sim.now () in
        for i = 0 to n - 1 do
          Backend.put client (Leed_workload.Workload.key_of_id i) (Bytes.make 1008 'x')
        done;
        let t1 = Sim.now () in
        let bad = ref 0 in
        for i = 0 to n - 1 do
          if Backend.get client (Leed_workload.Workload.key_of_id i) = None then incr bad
        done;
        let t2 = Sim.now () in
        let c = Backend.counters setup.Leed_experiments.Exp_common.backend in
        Printf.printf
          "smoke[%s]: %d puts in %.1f ms (sim), %d gets in %.1f ms, %d missing; %d nvme accesses, %.1f W\n"
          backend_name n
          ((t1 -. t0) *. 1e3)
          n
          ((t2 -. t1) *. 1e3)
          !bad (Backend.nvme_accesses c)
          (let util = if t2 > 0. then Float.min 1.0 (Backend.sum c "blockdev.busy_s" /. t2) else 0. in
           Backend.watts setup.Leed_experiments.Exp_common.backend ~util);
        if !bad > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "Put/get a batch of objects through a cluster of the chosen backend; --jbofs, --ssds \
          and --objects scale the cluster and the load.")
    Term.(const run $ backend $ jbofs $ ssds $ objects)

(* Shared driver for the observability commands: a small LEED cluster
   under a short YCSB-A closed loop with the gauge sampler attached.
   [at_window_end] runs at the end of the load window, while the workers'
   last ops are still in flight; [k] runs inside the simulation after
   the load completes. *)
let observed_ycsb ?at_window_end ~seed ~nclients ~nkeys ~duration k =
  let open Leed_sim in
  let open Leed_core in
  let open Leed_workload in
  Sim.run (fun () ->
      (* Probe fast enough that heartbeat rounds (control spans) land
         inside even the default 50 ms capture window. *)
      let cluster =
        Cluster.create
          ~config:{ Cluster.default_config with Cluster.heartbeat_period = 0.02 }
          ()
      in
      let obs = Obs.attach ~period:0.002 cluster in
      let clients = List.init nclients (fun _ -> Cluster.client cluster) in
      let c0 = List.hd clients in
      for id = 0 to nkeys - 1 do
        Client.put c0 (Workload.key_of_id id) (Workload.value_for ~id ~version:1 ~size:240)
      done;
      let gen = Workload.generator ~object_size:256 (Workload.ycsb_a ()) ~nkeys (Rng.create seed) in
      Option.iter (fun f -> Sim.after duration (fun () -> f cluster)) at_window_end;
      let r =
        Workload.Driver.closed_loop ~clients:(List.length clients) ~duration ~gen
          ~execute:
            (Workload.Driver.round_robin
               (fun c -> Workload.apply ~get:(Client.get c) ~put:(Client.put c))
               clients)
          ()
      in
      Obs.stop obs;
      k cluster obs r)

let trace_cmd =
  let out =
    Arg.(
      value & opt string "leed-trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file (Chrome trace_event JSON).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let duration =
    Arg.(
      value & opt float 0.05
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated load window to capture.")
  in
  let run out seed duration =
    let module Trace = Leed_trace.Trace in
    Trace.start ();
    observed_ycsb ~seed ~nclients:4 ~nkeys:300 ~duration (fun _cluster obs r ->
        Printf.printf "trace: %d ops at %.0f ops/s over %.3f s simulated\n" r.Leed_workload.Workload.Driver.ops
          r.Leed_workload.Workload.Driver.throughput r.Leed_workload.Workload.Driver.duration;
        Leed_core.Obs.report obs);
    Trace.stop ();
    Trace.write_file out;
    (* Per-category census so the capture is legible without a viewer. *)
    let cats = Hashtbl.create 8 in
    List.iter
      (fun (e : Trace.event) ->
        Hashtbl.replace cats e.Trace.cat (1 + Option.value ~default:0 (Hashtbl.find_opt cats e.Trace.cat)))
      (Trace.events ());
    let rows =
      (* simlint: allow hashtbl-order — bindings are sorted before use *)
      Hashtbl.fold (fun c n acc -> (c, n) :: acc) cats [] |> List.sort compare
    in
    Printf.printf "trace: wrote %d events to %s (open at https://ui.perfetto.dev)\n" (Trace.count ())
      out;
    List.iter (fun (c, n) -> Printf.printf "  %-8s %6d events\n" c n) rows
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a short YCSB-A load on a small LEED cluster with tracing on and write the capture \
          as Chrome trace_event JSON — every layer (client, net, node, engine, dev, control) \
          appears as its own track; see docs/TRACING.md for the schema.")
    Term.(const run $ out $ seed $ duration)

let top_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let duration =
    Arg.(
      value & opt float 0.05
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Simulated load window; the snapshot is taken at its end.")
  in
  let run seed duration =
    let open Leed_core in
    observed_ycsb ~at_window_end:Obs.top ~seed ~nclients:4 ~nkeys:300 ~duration
      (fun _cluster obs _r -> Obs.report obs)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run a short YCSB-A load on a small LEED cluster and print a top-style per-SSD snapshot \
          (token occupancy, queue depths, swap state) taken at the end of the load window, while \
          ops are still in flight, plus the sampled gauge summary.")
    Term.(const run $ seed $ duration)

let trace_validate_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace JSON to check.")
  in
  let run file =
    match Leed_trace.Trace.validate_file file with
    | Ok summary -> print_endline summary
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:
         "Check a trace file against the schema in docs/TRACING.md (well-formed Chrome \
          trace_event JSON, known phases, typed fields, matched async spans).")
    Term.(const run $ file)

let chaos_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule and workload seed.")
  in
  let runs =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~docv:"N"
          ~doc:"Repeat the identical run $(docv) times and diff the digests (determinism check).")
  in
  let fast =
    Arg.(value & flag & info [ "fast" ] ~doc:"Smaller cluster and shorter fault window.")
  in
  let bit_rot =
    Arg.(
      value & flag
      & info [ "bit-rot" ]
          ~doc:"Add at-rest bit-flip faults; runs the background scrubber and requires a \
                checksum-clean cluster after the final heal pass.")
  in
  let fail_slow =
    Arg.(
      value & flag
      & info [ "fail-slow" ]
          ~doc:"Add a gray failure to the schedule — one node's compute path runs 10x slower \
                behind healthy heartbeats, plus a creeping inbound jitter ramp — and arm the \
                defenses: hedged reads, adaptive timeouts, slow-outlier escalation, and a 1 s \
                per-op deadline.")
  in
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:"Strip the gray-failure defenses (no hedging, no adaptive timeouts, no \
                slow-outlier detection): the static-timeout baseline to compare --fail-slow \
                tails against.")
  in
  let proto =
    let protos =
      List.map
        (fun p -> (Leed_core.Replication.proto_to_string p, p))
        Leed_core.Replication.all_protos
    in
    Arg.(
      value
      & opt (enum protos) Leed_core.Replication.Crrs
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:"Replication protocol under test: $(b,crrs) (chain replication, the paper's \
                §3.7) or $(b,abd) (multi-writer quorum). Both must pass the same schedules.")
  in
  let cache =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:"Arm the in-network hot-object cache on the cluster fabric (DESIGN.md \
                \xc2\xa715). Same schedules, same invariants: a cache that ever served a \
                stale value trips the linearizability oracle.")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:"Arm the runtime invariant sanitizer for the run (otherwise inherited from \
                LEED_SANITIZE).")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Capture the first run as Chrome trace_event JSON into $(docv).")
  in
  let run seed runs fast bit_rot fail_slow naive proto cache sanitize trace_out =
    let open Leed_fault.Fault in
    let module Trace = Leed_trace.Trace in
    let cfg =
      let base = if fast then Chaos.fast_config else Chaos.default_config in
      let base = { base with Chaos.seed; bit_rot; naive; proto; cache } in
      (* The fail-slow preset needs a victim beyond the crash-restart
         and partition victims (else the generator skips it), and a
         per-op deadline so the shedding path has real work. *)
      if fail_slow then
        { base with Chaos.fail_slow = true; nnodes = max base.Chaos.nnodes 5; op_deadline = 1.0 }
      else base
    in
    let checks = if sanitize then Some true else None in
    let traced_run i =
      match trace_out with
      | Some file when i = 0 ->
          Trace.start ();
          let r = Chaos.run ?checks cfg in
          Trace.stop ();
          Trace.write_file file;
          Printf.printf "chaos: wrote %d trace events to %s\n" (Trace.count ()) file;
          r
      | _ -> Chaos.run ?checks cfg
    in
    let reports = List.init (max 1 runs) traced_run in
    let first = List.hd reports in
    Format.printf "%a@." Chaos.pp_report first;
    List.iteri (fun i r -> Printf.printf "run %d digest %s\n" (i + 1) r.Chaos.digest) reports;
    let deterministic =
      List.for_all (fun r -> r.Chaos.digest = first.Chaos.digest) reports
    in
    if not deterministic then begin
      Printf.printf "chaos: FAILED invariant=determinism seed=%d\n" seed;
      exit 2
    end;
    (match
       List.find_opt (fun (r : Chaos.report) -> r.Chaos.failed_invariants <> []) reports
     with
    | Some r ->
        (* the machine-greppable last line: which invariant, which seed *)
        Printf.printf "chaos: FAILED invariant=%s seed=%d\n"
          (List.hd r.Chaos.failed_invariants) seed;
        exit 1
    | None -> ());
    Printf.printf "chaos: OK seed=%d proto=%s\n" seed first.Chaos.proto
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded random fault schedule (crash-restarts, a partition, SSD degradation, link \
          loss) under closed-loop load and check the end-of-run invariants: zero \
          acknowledged-write loss, full replication restored, bounded unavailability, a \
          linearizable per-key operation history, deterministic digest. Exits non-zero on any \
          failure, naming the failing invariant and seed on the final line.")
    Term.(
      const run $ seed $ runs $ fast $ bit_rot $ fail_slow $ naive $ proto $ cache $ sanitize
      $ trace_out)


let race_cmd =
  let runs =
    Arg.(
      value & opt int 8
      & info [ "runs" ] ~docv:"K" ~doc:"Perturbed equal-time orderings to try per target.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed the K perturbation seeds derive from.")
  in
  let target =
    Arg.(
      value & opt (some string) None
      & info [ "target" ] ~docv:"NAME" ~doc:"Check a single target (default: all; see --list).")
  in
  let fast =
    Arg.(value & flag & info [ "fast" ] ~doc:"Smaller keyspaces and op budgets (smoke mode).")
  in
  let list_targets =
    Arg.(value & flag & info [ "list" ] ~doc:"List the registered targets and exit.")
  in
  let no_attribution =
    Arg.(
      value & flag
      & info [ "no-attribution" ]
          ~doc:"Report divergences without bisecting to the first commuting event pair \
                (skips the O(log events) extra runs per divergence).")
  in
  let run runs seed target fast list_targets no_attribution =
    let module Race = Leed_race.Race in
    if list_targets then
      List.iter
        (fun (t : Race.target) ->
          Printf.printf "%-16s %s%s\n" t.Race.name t.Race.descr
            (if t.Race.expect_divergence then " [expects divergence]" else ""))
        (Race.targets ~fast ())
    else begin
      let ts =
        match target with
        | Some n -> [ Race.find_target ~fast n ]
        | None -> Race.targets ~fast ()
      in
      let results =
        List.map (Race.check ~runs ~seed ~attribute_divergences:(not no_attribution)) ts
      in
      List.iter (fun r -> Format.printf "%a@." Race.pp_result r) results;
      let bad = List.filter (fun r -> not (Race.passed r)) results in
      if bad <> [] then begin
        Printf.eprintf "race: %d target(s) failed the determinism contract\n" (List.length bad);
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Simultaneous-event race detector: run each target once under the FIFO tie-break and K \
          times under seeded perturbations of equal-time event order, diff the observable \
          digests, and bisect any divergence to the first commuting event pair (the two \
          same-instant events whose order the observables illegally depend on). Clean targets \
          must agree across all orderings; the racy-demo fixture must diverge.")
    Term.(const run $ runs $ seed $ target $ fast $ list_targets $ no_attribution)

let scrub_cmd =
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Bit-rot placement seed.")
  in
  let flips =
    Arg.(value & opt int 48 & info [ "flips" ] ~docv:"N" ~doc:"Bits to flip before scrubbing.")
  in
  let run seed flips =
    let open Leed_sim in
    let open Leed_core in
    let open Leed_blockdev in
    Sim.run (fun () ->
        let cluster = Cluster.create ~config:{ Cluster.default_config with Cluster.nnodes = 3 } () in
        let client = Cluster.client cluster in
        let n = 400 in
        for i = 0 to n - 1 do
          Client.put client (Printf.sprintf "scrub-%04d" i) (Bytes.make 256 'v')
        done;
        (* Rot one node's drives (resident data only), then heal. *)
        let rng = Rng.create seed in
        let victim = List.hd (Cluster.nodes cluster) in
        let devs = Engine.devices (Node.engine victim) in
        let flipped = ref 0 in
        for _ = 1 to max 0 flips do
          flipped :=
            !flipped
            + Blockdev.corrupt_resident devs.(Rng.int rng (Array.length devs)) ~rng ~flips:1
        done;
        let before = Scrub.verify_all cluster in
        let rep = Scrub.run_once cluster in
        let after = Scrub.verify_all cluster in
        let stats n = Node.stats n in
        let sum f = List.fold_left (fun acc n -> acc + f (stats n)) 0 (Cluster.nodes cluster) in
        Printf.printf
          "scrub: %d bits flipped on node %d; before heal: %d rotted values, %d rotted segment \
           frames\n"
          !flipped (Node.id victim) before.Scrub.bad_values before.Scrub.bad_segments;
        Printf.printf
          "scrub: pass walked %d segments, healed %d values by read-repair, escalated %d vnodes \
           (%d pairs re-copied)\n"
          (sum (fun s -> s.Node.n_scrubbed_segments))
          (sum (fun s -> s.Node.n_scrub_repairs))
          rep.Scrub.escalated_vnodes rep.Scrub.recopied_pairs;
        Printf.printf "scrub: after heal: %d rotted values, %d rotted segment frames — %s\n"
          after.Scrub.bad_values after.Scrub.bad_segments
          (if Scrub.verify_clean after then "clean" else "STILL CORRUPT");
        if not (Scrub.verify_clean after) then exit 1)
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Preload a small LEED cluster, flip random bits in at-rest data, run one background \
          scrub pass (read-repair from CRRS replicas, COPY escalation for unreadable segment \
          frames), and verify every replica is checksum-clean afterwards.")
    Term.(const run $ seed $ flips)

let experiment_cmd =
  let exp =
    Arg.(required & pos 0 (some (enum Leed_experiments.Registry.all)) None
         & info [] ~docv:"EXPERIMENT")
  in
  let fast = Arg.(value & flag & info [ "fast" ] ~doc:"Shorter measurement windows") in
  let run f fast = f ~fast in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one paper table/figure")
    Term.(const run $ exp $ fast)

let () =
  let info = Cmd.info "leed" ~doc:"LEED: low-power persistent KV store on SmartNIC JBOFs" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            platforms_cmd;
            smoke_cmd;
            trace_cmd;
            top_cmd;
            trace_validate_cmd;
            chaos_cmd;
            race_cmd;
            scrub_cmd;
            experiment_cmd;
          ]))
