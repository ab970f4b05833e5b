(* Figure 7: CRRS (chain replication with request shipping) handles read
   imbalance. YCSB-B and YCSB-C with Zipf skew swept; with CRRS any clean
   replica serves reads (the client picks the one advertising the most
   tokens), without it the tail alone does. Throughput, average and
   99.9th-percentile latency. *)

open Leed_sim
open Leed_workload

let nkeys = 5_000

let measure_point ~fast ~crrs ~mix_of ~skew =
  Sim.run (fun () ->
      let setup = Exp_common.make_leed ~nclients:6 ~crrs () in
      Exp_common.preload setup ~nkeys ~value_size:1008;
      let gen = Workload.generator ~object_size:1024 (mix_of ~theta:skew) ~nkeys (Rng.create 51) in
      Exp_common.measure_closed ~label:"pt" ~setup ~clients:128 ~duration:(Exp_common.dur ~fast 0.12)
        ~gen ())

let run_mix ~fast name mix_of =
  Exp_common.on_off_over_skew
    ~title:(Printf.sprintf "Figure 7 (%s): CRRS vs no-CRRS over Zipf skew" name)
    (fun crrs skew -> measure_point ~fast ~crrs ~mix_of ~skew)

let run ~fast =
  run_mix ~fast "YCSB-B" (fun ~theta -> Workload.ycsb_b ~theta ());
  run_mix ~fast "YCSB-C" (fun ~theta -> Workload.ycsb_c ~theta ());
  print_endline
    "paper (YCSB-C): at skew 0.9/0.95/0.99 CRRS improves throughput 7.3x/5.1x/4.2x and cuts avg latency 86.6%/80.8%/76.4%"
