(* Figure 11 (appendix): GET/PUT/DEL latency breakdown — SSD time vs
   CPU+MEM time — for 256 B and 1 KB objects on a single LEED JBOF. SSD
   accesses should dominate (97%+ in the paper). *)

open Leed_sim
open Leed_core
open Leed_workload

let breakdown ~object_size =
  Sim.run (fun () ->
      let e, pid_of = Exp_common.jbof_engine () in
      let vsize = object_size - Workload.key_size in
      let nkeys = 2_000 in
      for id = 0 to nkeys - 1 do
        Result.get_ok
          (Engine.submit e ~pid:(pid_of id)
             (Engine.Put (Workload.key_of_id id, Workload.value_for ~id ~version:0 ~size:vsize)))
      done;
      (* Light load: 4 workers cycling GET, PUT, DEL(+reinsert). *)
      let rng = Rng.create 9 in
      ignore
        (Workload.Driver.fixed ~workers:4 ~ops:120 (fun _ ->
             let id = Rng.int rng nkeys in
             let k = Workload.key_of_id id in
             ignore (Result.get_ok (Engine.submit e ~pid:(pid_of id) (Engine.Get k)));
             Result.get_ok
               (Engine.submit e ~pid:(pid_of id)
                  (Engine.Put (k, Workload.value_for ~id ~version:1 ~size:vsize)));
             Result.get_ok (Engine.submit e ~pid:(pid_of id) (Engine.Del k));
             Result.get_ok
               (Engine.submit e ~pid:(pid_of id)
                  (Engine.Put (k, Workload.value_for ~id ~version:2 ~size:vsize)))));
      (* Aggregate the per-op SSD / CPU attribution over every store. *)
      let agg kind =
        let ssd = ref 0. and cpu = ref 0. and n = ref 0 in
        Array.iter
          (fun p ->
            let st = Store.stats (Engine.store p) kind in
            ssd := !ssd +. (Leed_stats.Summary.mean st.Store.ssd_time *. float_of_int st.Store.count);
            cpu := !cpu +. (Leed_stats.Summary.mean st.Store.cpu_time *. float_of_int st.Store.count);
            n := !n + st.Store.count)
          (Engine.partitions e);
        if !n = 0 then (0., 0.)
        else (!ssd /. float_of_int !n, !cpu /. float_of_int !n)
      in
      (agg Store.Get, agg Store.Put, agg Store.Del))

let run () =
  let rows object_size =
    let (g_ssd, g_cpu), (p_ssd, p_cpu), (d_ssd, d_cpu) = breakdown ~object_size in
    let row name ssd cpu =
      let total = ssd +. cpu in
      [
        Printf.sprintf "%s-%dB" name object_size;
        Leed_stats.Report.usec ssd;
        Leed_stats.Report.usec cpu;
        Leed_stats.Report.pct (if total > 0. then ssd /. total else 0.);
      ]
    in
    [ row "GET" g_ssd g_cpu; row "PUT" p_ssd p_cpu; row "DEL" d_ssd d_cpu ]
  in
  Leed_stats.Report.table ~title:"Figure 11: command latency breakdown (SSD vs CPU+MEM)"
    ~columns:[ "command"; "SSD (us)"; "CPU+MEM (us)"; "SSD share" ]
    (rows 1024 @ rows 256);
  print_endline "paper: SSD accesses dominate, 97.4%/97.6% for 256B/1KB on average"
