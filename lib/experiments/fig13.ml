(* Figure 13 (appendix): the impact of compaction parallelism.

   (a) intra-parallelism: one store under constant overwrite pressure with
       S-way sub-compactions, S ∈ {1..32}; client throughput improves as
       sub-compactions parallelise the relocation I/O.
   (b) inter-parallelism: four partitions on one SSD, with at most N
       compactions co-scheduled concurrently, N ∈ {1..4}.

   Workloads follow the paper: WR-ONLY, MIX-50 (uniform 50/50), and
   MIX-50-Zip (Zipf 0.99). *)

open Leed_sim
open Leed_core
open Leed_platform
open Leed_workload
open Leed_blockdev
module Driver = Workload.Driver

let nkeys = 1_500
let object_size = 1024

type wl = Wr_only | Mix50 | Mix50_zip

let wl_label = function Wr_only -> "WR-ONLY" | Mix50 -> "MIX-50" | Mix50_zip -> "MIX-50-Zip"

let pick_op wl rng zipf =
  let id = match wl with Mix50_zip -> Zipf.next_scrambled zipf | _ -> Rng.int rng nkeys in
  let read = match wl with Wr_only -> false | Mix50 | Mix50_zip -> Rng.bool rng in
  (id, read)

(* One store squeezed into logs small enough that compaction runs
   continuously while clients overwrite. *)
let make_squeezed_store ~name ~dev ~base ~subcompactions =
  let vsize = object_size - Workload.key_size in
  let live_bytes = nkeys * (vsize + 40) in
  let klog_size = 768 * 1024 in
  let vlog_size = 3 * live_bytes in
  let klog = Circular_log.create ~name:(name ^ ".k") ~dev ~dev_id:0 ~base ~size:klog_size in
  let vlog =
    Circular_log.create ~name:(name ^ ".v") ~dev ~dev_id:0 ~base:(base + klog_size) ~size:vlog_size
  in
  let config =
    {
      Store.nsegments = 256;
      subcompactions;
      compaction_window = 96 * 1024;
      compact_trigger = 0.7;
      compact_target = 0.5;
    }
  in
  Store.create ~config ~name ~klog ~vlog ()

(* 48 closed-loop clients for 0.2 s, worker [w] on [store_of w]; returns
   their throughput. *)
let run_clients ~wl ~rng ~zipf ~store_of =
  let vsize = object_size - Workload.key_size in
  (Driver.closed ~workers:48 ~duration:0.2 (fun w ->
       let id, read = pick_op wl rng zipf in
       let k = Workload.key_of_id id in
       if read then ignore (Store.get (store_of w) k)
       else Store.put (store_of w) k (Workload.value_for ~id ~version:1 ~size:vsize)))
    .Driver.throughput

(* --- (a) intra-parallelism --- *)

let intra_point ~wl ~subcompactions =
  Sim.run (fun () ->
      let platform = Exp_common.leed_platform () in
      let dev = Blockdev.create ~rng:(Rng.create 5) platform.Platform.ssd in
      let core = Platform.Cpu.pinned_core platform 0 in
      let store = make_squeezed_store ~name:"s" ~dev ~base:0 ~subcompactions in
      Store.set_charge store (fun cycles -> Platform.Cpu.execute_on platform core ~cycles);
      Store.run_compactor ~period:0.001 store;
      let vsize = object_size - Workload.key_size in
      for id = 0 to nkeys - 1 do
        Store.put store (Workload.key_of_id id) (Workload.value_for ~id ~version:0 ~size:vsize)
      done;
      run_clients ~wl ~rng:(Rng.create 71)
        ~zipf:(Zipf.create ~theta:0.99 ~n:nkeys (Rng.create 72))
        ~store_of:(fun _ -> store))

(* --- (b) inter-parallelism: 4 partitions, at most N concurrent
   compactions --- *)

let inter_point ~wl ~concurrent =
  Sim.run (fun () ->
      let platform = Exp_common.leed_platform () in
      let dev = Blockdev.create ~rng:(Rng.create 6) platform.Platform.ssd in
      let core = Platform.Cpu.pinned_core platform 0 in
      let gate = Sim.Resource.create ~name:"compaction-gate" ~capacity:concurrent () in
      let stores =
        List.init 4 (fun i ->
            let store =
              make_squeezed_store ~name:(Printf.sprintf "p%d" i) ~dev ~base:(i * 16 * 1024 * 1024)
                ~subcompactions:4
            in
            Store.set_charge store (fun cycles -> Platform.Cpu.execute_on platform core ~cycles);
            store)
      in
      (* Custom compaction drivers gated by the co-scheduling limit. *)
      List.iter
        (fun store ->
          Sim.every ~period:0.001 (fun () ->
              (if Circular_log.occupancy (Store.klog store) > 0.6 then
                 Sim.Resource.with_ gate (fun () -> ignore (Store.compact_key_log store)));
              (if Circular_log.occupancy (Store.vlog store) > 0.6 then
                 Sim.Resource.with_ gate (fun () -> ignore (Store.compact_value_log store)));
              true))
        stores;
      let vsize = object_size - Workload.key_size in
      List.iteri
        (fun _i store ->
          for id = 0 to nkeys - 1 do
            Store.put store (Workload.key_of_id id) (Workload.value_for ~id ~version:0 ~size:vsize)
          done)
        stores;
      (* Clients spread across the 4 partitions. *)
      let stores = Array.of_list stores in
      run_clients ~wl ~rng:(Rng.create 73)
        ~zipf:(Zipf.create ~theta:0.99 ~n:nkeys (Rng.create 74))
        ~store_of:(fun w -> stores.(w mod 4)))

let run () =
  let wls = [ Wr_only; Mix50; Mix50_zip ] in
  let subs = [ 1; 2; 4; 8; 16; 32 ] in
  Leed_stats.Report.series ~title:"Figure 13a: intra-parallelism (client KQPS vs sub-compactions)"
    ~x_label:"subcompactions"
    ~xs:(List.map string_of_int subs)
    (List.map
       (fun wl -> (wl_label wl, List.map (fun s -> intra_point ~wl ~subcompactions:s /. 1e3) subs))
       wls);
  let cos = [ 1; 2; 3; 4 ] in
  Leed_stats.Report.series
    ~title:"Figure 13b: inter-parallelism (client KQPS vs co-scheduled compactions)"
    ~x_label:"compaction#"
    ~xs:(List.map string_of_int cos)
    (List.map
       (fun wl -> (wl_label wl, List.map (fun c -> inter_point ~wl ~concurrent:c /. 1e3) cos))
       wls);
  print_endline "paper: ~1.9x from 8 sub-compactions; +17.9% from co-scheduling"
