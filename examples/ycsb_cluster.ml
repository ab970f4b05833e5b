(* Run a YCSB workload against a simulated KV cluster — any backend behind
   the KV_BACKEND boundary (leed/fawn/kvell) — and report throughput,
   latency percentiles, NVMe traffic, and energy efficiency.

   Examples:
     dune exec examples/ycsb_cluster.exe
     dune exec examples/ycsb_cluster.exe -- -b kvell -w ycsb-a -s 256 -d 0.2 -c 64
     dune exec examples/ycsb_cluster.exe -- -w ycsb-c --skew 0.99 --no-crrs *)

open Cmdliner
open Leed_sim
open Leed_core
open Leed_workload
open Leed_experiments

let run backend_name workload_name object_size duration clients skew nkeys crrs flow_control =
  let mix =
    match String.lowercase_ascii workload_name with
    | "ycsb-a" | "a" -> Workload.ycsb_a ~theta:skew ()
    | "ycsb-b" | "b" -> Workload.ycsb_b ~theta:skew ()
    | "ycsb-c" | "c" -> Workload.ycsb_c ~theta:skew ()
    | "ycsb-d" | "d" -> Workload.ycsb_d ~theta:skew ()
    | "ycsb-f" | "f" -> Workload.ycsb_f ~theta:skew ()
    | "ycsb-wr" | "wr" -> Workload.ycsb_wr ~theta:skew ()
    | other -> failwith ("unknown workload: " ^ other)
  in
  let m =
    Sim.run (fun () ->
        let setup =
          (* The CRRS / flow-control knobs are LEED mechanisms; the other
             backends take their comparison-default configs, with KVell's
             slab slots sized to the objects. *)
          match backend_name with
          | "leed" -> Exp_common.make_leed ~nclients:4 ~crrs ~flow_control ()
          | "kvell" -> Exp_common.make_kvell ~nclients:4 ~object_size ()
          | name -> Exp_common.setup_of_name ~nclients:4 name
        in
        Printf.printf "preloading %d objects of %d B (R=3)...\n%!" nkeys object_size;
        Exp_common.preload setup ~nkeys ~value_size:(object_size - Workload.key_size);
        let gen = Workload.generator ~object_size mix ~nkeys (Rng.create 7) in
        Printf.printf "running %s for %.2f simulated seconds with %d closed-loop clients...\n%!"
          mix.Workload.label duration clients;
        Exp_common.measure_closed ~label:mix.Workload.label ~setup ~clients ~duration ~gen ())
  in
  Printf.printf "\n== %s on %s (%dB objects, skew %.2f, crrs=%b, flow-control=%b) ==\n"
    mix.Workload.label backend_name object_size skew crrs flow_control;
  Printf.printf "  ops          %d\n" m.Backend.ops;
  Printf.printf "  throughput   %.1f KQPS\n" (m.Backend.throughput /. 1e3);
  Printf.printf "  avg latency  %.1f us\n" (m.Backend.avg_lat *. 1e6);
  Printf.printf "  p99          %.1f us\n" (m.Backend.p99 *. 1e6);
  Printf.printf "  p99.9        %.1f us\n" (m.Backend.p999 *. 1e6);
  Printf.printf "  nvme         %d accesses (%d nacks, %d retries)\n"
    (Backend.nvme_accesses m.Backend.counters)
    (Backend.count m.Backend.counters "client.nacks")
    (Backend.count m.Backend.counters "client.retries");
  Printf.printf "  cluster power %.1f W -> %.2f KQueries/Joule\n" m.Backend.watts
    (m.Backend.queries_per_joule /. 1e3)

let backend =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Exp_common.backend_names)) "leed"
    & info [ "b"; "backend" ] ~doc:"KV system to drive (leed/fawn/kvell)")

let workload =
  Arg.(value & opt string "ycsb-b" & info [ "w"; "workload" ] ~doc:"YCSB workload (a/b/c/d/f/wr)")

let object_size = Arg.(value & opt int 1024 & info [ "s"; "size" ] ~doc:"Object size in bytes")
let duration = Arg.(value & opt float 0.15 & info [ "d"; "duration" ] ~doc:"Measured simulated seconds")
let clients = Arg.(value & opt int 96 & info [ "c"; "clients" ] ~doc:"Closed-loop client count")
let skew = Arg.(value & opt float 0.99 & info [ "skew" ] ~doc:"Zipf skewness")
let nkeys = Arg.(value & opt int 8000 & info [ "n"; "keys" ] ~doc:"Key count")
let no_crrs = Arg.(value & flag & info [ "no-crrs" ] ~doc:"Disable CRRS replica reads (leed only)")
let no_fc = Arg.(value & flag & info [ "no-flow-control" ] ~doc:"Disable token flow control (leed only)")

let cmd =
  let f b w s d c sk n nc nf = run b w s d c sk n (not nc) (not nf) in
  Cmd.v
    (Cmd.info "ycsb_cluster" ~doc:"YCSB benchmark against a simulated KV cluster")
    Term.(const f $ backend $ workload $ object_size $ duration $ clients $ skew $ nkeys $ no_crrs $ no_fc)

let () = exit (Cmd.eval cmd)
