(* Table 3: single-node comparison of FAWN-JBOF, KVell-JBOF, and LEED, all
   running on the SmartNIC JBOF — max usable capacity, random read/write
   latency, and random read/write throughput for 256 B and 1 KB objects.

   Max capacity is computed at full hardware scale from the index models
   (8 GB DRAM vs 4×960 GB flash); latency/throughput are measured on the
   scaled simulation. *)

open Leed_sim
open Leed_core
open Leed_platform
open Leed_workload
open Leed_baselines
open Leed_blockdev
module Driver = Workload.Driver

let gb = 1024. *. 1024. *. 1024.

(* --- capacity (full-scale, analytic from the index models) --- *)

let flash_bytes = 4. *. 960. *. gb
let dram_bytes = 8. *. gb

let fawn_capacity ~object_size =
  (* FAWN-DS's DRAM per object, ~80% of DRAM usable for the index. *)
  let objects = 0.8 *. dram_bytes /. float_of_int Fawn_store.index_bytes_per_object in
  Float.min 1.0 (objects *. float_of_int object_size /. flash_bytes)

let kvell_capacity ~object_size =
  (* KVell's DRAM per object (hash index entry + free list + cache meta),
     after its page-cache share of DRAM. *)
  let objects =
    (1. -. Kvell_store.page_cache_frac) *. dram_bytes
    /. float_of_int Kvell_store.index_bytes_per_object
  in
  Float.min 1.0 (objects *. float_of_int object_size /. flash_bytes)

let leed_capacity ~object_size =
  (* SegTbl: its modeled bytes per *segment* of ~14 objects — DRAM never
     binds; what is lost is metadata overhead in the logs (~36 B key-log
     amortised + 20 B value header per object) and the swap reserve. *)
  let objects_dram = dram_bytes /. float_of_int Segtbl.entry_bytes *. 14. in
  let dram_frac = Float.min 1.0 (objects_dram *. float_of_int object_size /. flash_bytes) in
  let overhead = float_of_int object_size /. float_of_int (object_size + 36 + 20) in
  dram_frac *. overhead *. 0.98

(* --- measurement harnesses --- *)

type point = { rd_lat : float; wr_lat : float; rd_thr : float; wr_thr : float; rd_lat_sat : float }

let nkeys = 8_000

let measure ~preload ~execute_read ~execute_write =
  preload ();
  (* latency: a handful of lightly-loaded clients *)
  let lat exec =
    Leed_stats.Histogram.mean (Driver.fixed ~workers:4 ~ops:50 (fun _ -> exec ())).Driver.latency
  in
  let rd_lat = lat execute_read and wr_lat = lat execute_write in
  (* throughput: saturation with many closed-loop workers; the same run's
     latency distribution shows what queueing does to each design *)
  let thr exec =
    let r = Driver.closed ~workers:192 ~duration:0.15 (fun _ -> exec ()) in
    (r.Driver.throughput, Leed_stats.Histogram.mean r.Driver.latency)
  in
  let rd_thr, rd_lat_sat = thr execute_read in
  let wr_thr, _ = thr execute_write in
  { rd_lat; wr_lat; rd_thr; wr_thr; rd_lat_sat }

(* LEED: the intra-JBOF engine on one SmartNIC JBOF. *)
let leed_point ~object_size =
  Sim.run (fun () ->
      let e, pid_of = Exp_common.jbof_engine () in
      let vsize = object_size - Workload.key_size in
      let rng = Rng.create 42 in
      let put ~version id =
        Result.get_ok
          (Engine.submit e ~pid:(pid_of id)
             (Engine.Put (Workload.key_of_id id, Workload.value_for ~id ~version ~size:vsize)))
      in
      let preload () = Driver.spread ~workers:16 ~n:nkeys (put ~version:0) in
      let execute_read () =
        let id = Rng.int rng nkeys in
        ignore (Result.get_ok (Engine.submit e ~pid:(pid_of id) (Engine.Get (Workload.key_of_id id))))
      in
      let execute_write () = put ~version:1 (Rng.int rng nkeys) in
      measure ~preload ~execute_read ~execute_write)

(* FAWN ported to the JBOF: one single-threaded FAWN-DS per SSD (its
   synchronous event loop cannot drive NVMe queue depth). *)
let fawn_point ~object_size =
  Sim.run (fun () ->
      let platform = Exp_common.leed_platform () in
      let nssd = platform.Platform.ssd_count in
      let stores =
        Array.init nssd (fun d ->
            let dev = Blockdev.create ~rng:(Rng.create (7 + d)) platform.Platform.ssd in
            let log =
              Circular_log.create ~name:(Printf.sprintf "fawn%d" d) ~dev ~dev_id:d ~base:0
                ~size:(Blockdev.capacity dev)
            in
            let core = Platform.Cpu.pinned_core platform d in
            let config =
              {
                Fawn_store.dram_budget = 256 * 1024 * 1024;
                (* the SPDK port writes through synchronously *)
                flush_threshold = 0;
                charge = (fun cycles -> Platform.Cpu.execute_on platform core ~cycles);
              }
            in
            let s = Fawn_store.create ~config ~log () in
            Fawn_store.run_flusher s;
            Fawn_store.run_compactor s;
            (* FAWN-DS is single-threaded per store. *)
            (s, Sim.Resource.create ~name:(Printf.sprintf "fawn%d.lock" d) ~capacity:1 ()))
      in
      let vsize = object_size - Workload.key_size in
      let rng = Rng.create 43 in
      let store_of id = stores.(Codec.hash_key (Workload.key_of_id id) mod nssd) in
      let preload () =
        for id = 0 to nkeys - 1 do
          let s, lock = store_of id in
          Sim.Resource.with_ lock (fun () ->
              Fawn_store.put s (Workload.key_of_id id) (Workload.value_for ~id ~version:0 ~size:vsize))
        done
      in
      let execute_read () =
        let id = Rng.int rng nkeys in
        let s, lock = store_of id in
        Sim.Resource.with_ lock (fun () -> ignore (Fawn_store.get s (Workload.key_of_id id)))
      in
      let execute_write () =
        let id = Rng.int rng nkeys in
        let s, lock = store_of id in
        Sim.Resource.with_ lock (fun () ->
            Fawn_store.put s (Workload.key_of_id id) (Workload.value_for ~id ~version:1 ~size:vsize))
      in
      measure ~preload ~execute_read ~execute_write)

(* KVell on the JBOF: shared-nothing workers pinned to the wimpy A72
   cores; the flat per-op index charge is where the cycles go. *)
let kvell_point ~object_size =
  Sim.run (fun () ->
      let platform = Exp_common.leed_platform () in
      let devs =
        Array.init platform.Platform.ssd_count (fun d ->
            Blockdev.create ~rng:(Rng.create (17 + d)) platform.Platform.ssd)
      in
      let nworkers = platform.Platform.cpu.Platform.cores in
      let cores = Array.init nworkers (fun w -> Platform.Cpu.pinned_core platform w) in
      let config =
        {
          Kvell_store.default_config with
          Kvell_store.nworkers;
          slot_size = object_size + 64;
          (* small enough that the page cache covers only a sliver of the
             working set, as on real hardware where data >> DRAM *)
          dram_budget = 2 * 1024 * 1024;
          charge = (fun wid cycles -> Platform.Cpu.execute_on platform cores.(wid) ~cycles);
        }
      in
      let s = Kvell_store.create ~config ~devs () in
      let vsize = object_size - Workload.key_size in
      let rng = Rng.create 44 in
      let preload () =
        Driver.spread ~workers:16 ~n:nkeys (fun id ->
            Kvell_store.put s (Workload.key_of_id id) (Workload.value_for ~id ~version:0 ~size:vsize))
      in
      let execute_read () =
        let id = Rng.int rng nkeys in
        ignore (Kvell_store.get s (Workload.key_of_id id))
      in
      let execute_write () =
        let id = Rng.int rng nkeys in
        Kvell_store.put s (Workload.key_of_id id) (Workload.value_for ~id ~version:1 ~size:vsize)
      in
      measure ~preload ~execute_read ~execute_write)

let run () =
  let open Leed_stats.Report in
  let do_size object_size =
    let fawn = fawn_point ~object_size in
    let kvell = kvell_point ~object_size in
    let leed = leed_point ~object_size in
    table
      ~title:(Printf.sprintf "Table 3 (%dB objects): FAWN-JBOF vs KVell-JBOF vs LEED" object_size)
      ~columns:[ "metric"; "FAWN-JBOF"; "KVell-JBOF"; "LEED" ]
      [
        [
          "max capacity";
          pct (fawn_capacity ~object_size);
          pct (kvell_capacity ~object_size);
          pct (leed_capacity ~object_size);
        ];
        [ "RND RD lat (us)"; usec fawn.rd_lat; usec kvell.rd_lat; usec leed.rd_lat ];
        [ "RD lat @sat (us)"; usec fawn.rd_lat_sat; usec kvell.rd_lat_sat; usec leed.rd_lat_sat ];
        [ "RND WR lat (us)"; usec fawn.wr_lat; usec kvell.wr_lat; usec leed.wr_lat ];
        [ "RND RD thr (KQPS)"; kqps fawn.rd_thr; kqps kvell.rd_thr; kqps leed.rd_thr ];
        [ "RND WR thr (KQPS)"; kqps fawn.wr_thr; kqps kvell.wr_thr; kqps leed.wr_thr ];
      ]
  in
  do_size 256;
  do_size 1024;
  print_endline
    "paper (1KB): cap 24.1/2.6/97.3%; rd lat 54/445/133us; wr lat 45/810/84us; rd thr 74/289/856K; wr thr 88/156/609K"
