(* Figure 9: cluster throughput over time across a node join and a node
   leave (YCSB-A and YCSB-B, 1 KB objects, 3-node cluster, R=3), offered
   near saturation like the paper's run — the COPY traffic and the
   inconsistent-view NACK window then show up as throughput dips.

   The platform uses reduced-parallelism SSDs so the multi-second
   join/leave timeline stays tractable to simulate at saturation. *)

open Leed_sim
open Leed_core
open Leed_platform
open Leed_workload
open Leed_blockdev

let nkeys = 20_000
let bucket = 0.5
let horizon = 12.0

let weak_platform () =
  let p = Exp_common.leed_platform () in
  { p with Platform.ssd = { p.Platform.ssd with Blockdev.read_concurrency = 4 } }

let run_workload mix =
  Sim.run (fun () ->
      (* The raw cluster handle stays in scope for the join/leave below;
         everything op-shaped goes through the backend boundary. *)
      let cluster = Exp_common.make_leed_cluster ~platform:(weak_platform ()) () in
      let setup = Exp_common.setup_of_cluster ~nclients:6 cluster in
      Exp_common.preload setup ~nkeys ~value_size:1008;
      let execute = Exp_common.rr_execute setup in
      (* Calibrate: saturation throughput, then offer 80% of it. *)
      let sat =
        let gen = Workload.generator ~object_size:1024 mix ~nkeys (Rng.create 60) in
        (Exp_common.measure_closed ~label:"sat" ~setup ~clients:96 ~duration:0.08 ~gen ())
          .Backend.throughput
      in
      let rate = 0.85 *. sat in
      Printf.printf "  (saturation %.0f KQPS; offering %.0f KQPS)\n%!" (sat /. 1e3) (rate /. 1e3);
      let gen = Workload.generator ~object_size:1024 mix ~nkeys (Rng.create 61) in
      let completions = Hashtbl.create 64 in
      let t0 = Sim.now () in
      let record () =
        let b = int_of_float ((Sim.now () -. t0) /. bucket) in
        Hashtbl.replace completions b (1 + Option.value ~default:0 (Hashtbl.find_opt completions b))
      in
      let events = ref [] in
      Sim.spawn (fun () ->
          Sim.delay 2.5;
          events := (Sim.now () -. t0, "join start") :: !events;
          let _n, copied = Cluster.add_node cluster in
          events := (Sim.now () -. t0, Printf.sprintf "join end (%d pairs copied)" copied) :: !events;
          Sim.delay 2.0;
          events := (Sim.now () -. t0, "leave start") :: !events;
          let copied = Cluster.remove_node cluster 3 in
          events := (Sim.now () -. t0, Printf.sprintf "leave end (%d pairs copied)" copied) :: !events);
      (* Bounded client window: when the cluster falls behind (the dip),
         arrivals beyond the window are shed instead of queuing forever —
         which is exactly how the completion-rate drop becomes visible. *)
      let r =
        Workload.Driver.open_loop ~drain:0.5 ~window:1500 ~rate ~duration:horizon ~gen
          ~execute:(fun op ->
            (try execute op with Client.Unavailable _ -> ());
            record ())
          ()
      in
      let buckets = List.init (int_of_float (horizon /. bucket)) Fun.id in
      Leed_stats.Report.series
        ~title:(Printf.sprintf "Figure 9 (%s): throughput timeline across join/leave" mix.Workload.label)
        ~x_label:"t(s)"
        ~xs:(List.map (fun b -> Printf.sprintf "%.1f" (float_of_int b *. bucket)) buckets)
        [
          ( "KQPS",
            List.map
              (fun b ->
                float_of_int (Option.value ~default:0 (Hashtbl.find_opt completions b))
                /. bucket /. 1e3)
              buckets );
        ];
      List.iter (fun (t, e) -> Printf.printf "  t=%.2fs: %s\n" t e) (List.rev !events);
      Printf.printf "  %d arrivals shed at the 1500-request window\n" r.Workload.Driver.shed)

let run () =
  run_workload (Workload.ycsb_a ());
  run_workload (Workload.ycsb_b ());
  print_endline
    "paper: 49.1%/15.9% throughput drop after join start (YCSB-A/B), 66.0%/43.9% after leave start; NACKs add up to 29.7% at join end"
