(* Figure 8: load-aware scheduling (the token-based intra-JBOF engine plus
   the flow-control inter-JBOF scheduler) vs no load-aware scheduling
   (clients flood, queues build). YCSB-B and YCSB-C over Zipf skew. *)

open Leed_sim
open Leed_workload

let nkeys = 5_000

let measure_point ~fast ~ls ~mix_of ~skew =
  Sim.run (fun () ->
      (* "LS off" disables both halves of load-aware scheduling: the
         client-side token gating (Alg. 1) and the intra-JBOF token engine
         -- commands are admitted to the SSDs unconditionally. *)
      let engine_cfg =
        if ls then Exp_common.engine_config ()
        else
          {
            (Exp_common.engine_config ()) with
            Leed_core.Engine.token_min = 1_000_000;
            token_max = 1_000_000;
            waiting_cap = max_int;
          }
      in
      let setup = Exp_common.make_leed ~nclients:6 ~flow_control:ls ~engine_cfg () in
      Exp_common.preload setup ~nkeys ~value_size:1008;
      let gen = Workload.generator ~object_size:1024 (mix_of ~theta:skew) ~nkeys (Rng.create 52) in
      Exp_common.measure_closed ~label:"pt" ~setup ~clients:160 ~duration:(Exp_common.dur ~fast 0.12)
        ~gen ())

let run_mix ~fast name mix_of =
  Exp_common.on_off_over_skew
    ~title:(Printf.sprintf "Figure 8 (%s): load-aware scheduling on/off over Zipf skew" name)
    (fun ls skew -> measure_point ~fast ~ls ~mix_of ~skew)

let run ~fast =
  run_mix ~fast "YCSB-B" (fun ~theta -> Workload.ycsb_b ~theta ());
  run_mix ~fast "YCSB-C" (fun ~theta -> Workload.ycsb_c ~theta ());
  print_endline
    "paper (YCSB-B): load-aware scheduling improves throughput 52.2% and cuts avg/p99.9 latency 34.4%/33.7%"
