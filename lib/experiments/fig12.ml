(* Figure 12 (appendix): single-node throughput as the PUT fraction grows,
   for FAWN-DS on a Raspberry Pi and LEED on a SmartNIC JBOF, 256 B and
   1 KB objects. LEED dips slightly with more PUTs (3 accesses vs 2);
   FAWN speeds up (log-structured buffered appends beat SD-card reads). *)

open Leed_sim
open Leed_core
open Leed_platform
open Leed_workload
open Leed_baselines
open Leed_blockdev
module Driver = Workload.Driver

let fractions = [ 0.0; 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ]

let nkeys = 2_000

let leed_throughput ~object_size ~put_frac =
  Sim.run (fun () ->
      let e, pid_of = Exp_common.jbof_engine () in
      let vsize = object_size - Workload.key_size in
      let put ~version id =
        Result.get_ok
          (Engine.submit e ~pid:(pid_of id)
             (Engine.Put (Workload.key_of_id id, Workload.value_for ~id ~version ~size:vsize)))
      in
      Driver.spread ~workers:16 ~n:nkeys (put ~version:0);
      let rng = Rng.create 31 in
      (Driver.closed ~workers:192 ~duration:0.1 (fun _ ->
           let id = Rng.int rng nkeys in
           if Rng.float rng < put_frac then put ~version:1 id
           else
             ignore
               (Result.get_ok (Engine.submit e ~pid:(pid_of id) (Engine.Get (Workload.key_of_id id))))))
        .Driver.throughput)

let fawn_pi_throughput ~object_size ~put_frac =
  Sim.run (fun () ->
      let platform = Exp_common.pi_platform () in
      let dev = Blockdev.create ~rng:(Rng.create 3) platform.Platform.ssd in
      let log =
        Circular_log.create ~name:"pi.log" ~dev ~dev_id:0 ~base:0 ~size:(Blockdev.capacity dev)
      in
      let cpu = Platform.Cpu.create platform in
      let config =
        {
          Fawn_store.default_config with
          Fawn_store.dram_budget = 16 * 1024 * 1024;
          charge = (fun cycles -> Platform.Cpu.execute cpu ~cycles);
        }
      in
      let s = Fawn_store.create ~config ~log () in
      Fawn_store.run_flusher s;
      Fawn_store.run_compactor s;
      let lock = Sim.Resource.create ~name:"fawnds.lock" ~capacity:1 () in
      let vsize = object_size - Workload.key_size in
      for id = 0 to nkeys - 1 do
        Sim.Resource.with_ lock (fun () ->
            Fawn_store.put s (Workload.key_of_id id) (Workload.value_for ~id ~version:0 ~size:vsize))
      done;
      let rng = Rng.create 32 in
      (Driver.closed ~workers:8 ~duration:0.3 (fun _ ->
           let id = Rng.int rng nkeys in
           let k = Workload.key_of_id id in
           Sim.Resource.with_ lock (fun () ->
               if Rng.float rng < put_frac then
                 Fawn_store.put s k (Workload.value_for ~id ~version:1 ~size:vsize)
               else ignore (Fawn_store.get s k))))
        .Driver.throughput)

let run () =
  let series f = List.map (fun frac -> f ~put_frac:frac /. 1e3) fractions in
  let xs = List.map (fun f -> Printf.sprintf "%.0f%%" (100. *. f)) fractions in
  Leed_stats.Report.series
    ~title:"Figure 12: throughput (KQPS) vs PUT fraction, FAWN(Pi) vs LEED(JBOF)" ~x_label:"PUT%"
    ~xs
    [
      ("FAWNDS-1KB", series (fun ~put_frac -> fawn_pi_throughput ~object_size:1024 ~put_frac));
      ("FAWNDS-256B", series (fun ~put_frac -> fawn_pi_throughput ~object_size:256 ~put_frac));
      ("LEED-1KB", series (fun ~put_frac -> leed_throughput ~object_size:1024 ~put_frac));
      ("LEED-256B", series (fun ~put_frac -> leed_throughput ~object_size:256 ~put_frac));
    ];
  print_endline
    "paper: LEED drops ~3% per +10% PUT; FAWN rises with PUTs (log-structured writes beat reads)"
