(* Figure 7: CRRS (chain replication with request shipping) handles read
   imbalance. YCSB-B and YCSB-C with Zipf skew swept; with CRRS any clean
   replica serves reads (the client picks the one advertising the most
   tokens), without it the tail alone does. Throughput, average and
   99.9th-percentile latency. *)

open Leed_sim
open Leed_core
open Leed_workload

let nkeys = 5_000

let measure_point ~crrs ~mix_of ~skew =
  Sim.run (fun () ->
      let setup = Exp_common.make_leed ~nclients:6 ~crrs () in
      Exp_common.preload setup ~nkeys ~value_size:1008;
      let gen = Workload.generator ~object_size:1024 (mix_of ~theta:skew) ~nkeys (Rng.create 51) in
      Exp_common.measure_closed ~label:"pt" ~setup ~clients:128 ~duration:(Exp_common.dur 0.12)
        ~gen ())

let run_mix name mix_of =
  let points crrs = List.map (fun skew -> measure_point ~crrs ~mix_of ~skew) Workload.skew_sweep in
  let with_crrs = points true and without = points false in
  let col f pts = List.map f pts in
  Leed_stats.Report.series
    ~title:(Printf.sprintf "Figure 7 (%s): CRRS vs no-CRRS over Zipf skew" name)
    ~x_label:"skew"
    ~xs:(List.map string_of_float Workload.skew_sweep)
    [
      ("thr-KQPS w/", col (fun m -> m.Backend.throughput /. 1e3) with_crrs);
      ("thr-KQPS w/o", col (fun m -> m.Backend.throughput /. 1e3) without);
      ("avg-ms w/", col (fun m -> m.Backend.avg_lat *. 1e3) with_crrs);
      ("avg-ms w/o", col (fun m -> m.Backend.avg_lat *. 1e3) without);
      ("p999-ms w/", col (fun m -> m.Backend.p999 *. 1e3) with_crrs);
      ("p999-ms w/o", col (fun m -> m.Backend.p999 *. 1e3) without);
    ]

let run () =
  run_mix "YCSB-B" (fun ~theta -> Workload.ycsb_b ~theta ());
  run_mix "YCSB-C" (fun ~theta -> Workload.ycsb_c ~theta ());
  print_endline
    "paper (YCSB-C): at skew 0.9/0.95/0.99 CRRS improves throughput 7.3x/5.1x/4.2x and cuts avg latency 86.6%/80.8%/76.4%"
