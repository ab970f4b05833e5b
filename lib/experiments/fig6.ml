(* Figures 6 and 14: average latency vs throughput for the six YCSB
   workloads — Embedded-FAWN(10), Embedded-FAWN(100) (the paper's ideal
   10x linear-scaling extrapolation), Server-KVell, and SmartNIC-LEED.
   Open-loop rate sweeps at fractions of each system's saturation, every
   system driven through the backend-generic boundary. *)

open Leed_sim
open Leed_core
open Leed_workload

let fractions = [ 0.25; 0.5; 0.75; 0.95 ]

type sweep_point = { thr : float; avg_ms : float }

(* Find saturation closed-loop, then sweep open-loop rates. *)
let sweep ~fast ~gen_of ~setup ~clients () =
  let sat =
    let m =
      Exp_common.measure_closed ~label:"sat" ~setup ~clients ~duration:(Exp_common.dur ~fast 0.1)
        ~gen:(gen_of 0) ()
    in
    m.Backend.throughput
  in
  List.mapi
    (fun i frac ->
      let rate = frac *. sat in
      let m =
        Exp_common.measure_open ~label:"pt" ~setup ~rate ~duration:(Exp_common.dur ~fast 0.12)
          ~gen:(gen_of (i + 1)) ()
      in
      { thr = m.Backend.throughput; avg_ms = m.Backend.avg_lat *. 1e3 })
    fractions

(* Each system's generator seeds start here. *)
let seed_base = [ ("leed", 100); ("kvell", 200); ("fawn", 300) ]

(* Each system in its own simulation world. *)
let run_system ~fast ~object_size (mix : Workload.mix) (d : Exp_common.system) =
  Sim.run (fun () ->
      let setup = d.Exp_common.make () in
      Exp_common.preload setup ~nkeys:d.Exp_common.nkeys
        ~value_size:(object_size - Workload.key_size);
      sweep ~fast
        ~gen_of:(fun i ->
          Workload.generator ~object_size mix ~nkeys:d.Exp_common.nkeys
            (Rng.create (List.assoc d.Exp_common.name seed_base + i)))
        ~setup ~clients:d.Exp_common.workers ())

let run_workload ~fast ~object_size (mix : Workload.mix) =
  let results =
    List.map
      (fun (d : Exp_common.system) -> (d.Exp_common.name, run_system ~fast ~object_size mix d))
      (Exp_common.compared_systems ~object_size)
  in
  let points name = List.assoc name results in
  let leed = points "leed" and kvell = points "kvell" and fawn = points "fawn" in
  let fmt p = Printf.sprintf "%.0fK@%.2fms" (p.thr /. 1e3) p.avg_ms in
  let fmt100 p = Printf.sprintf "%.0fK@%.2fms" (p.thr /. 1e2) p.avg_ms in
  Leed_stats.Report.table
    ~title:(Printf.sprintf "%s (%dB): throughput@latency per offered-load step" mix.Workload.label object_size)
    ~columns:[ "load"; "FAWN(10)"; "FAWN(100)"; "Server-KVell"; "SmartNIC-LEED" ]
    (List.mapi
       (fun i frac ->
         [
           Printf.sprintf "%.0f%%" (100. *. frac);
           fmt (List.nth fawn i);
           (* FAWN(100): the paper assumes ideal 10x linear scaling with no
              latency increase. *)
           fmt100 (List.nth fawn i);
           fmt (List.nth kvell i);
           fmt (List.nth leed i);
         ])
       fractions)

let run_size ~fast ~object_size =
  List.iter (run_workload ~fast ~object_size) (Workload.all_ycsb ());
  print_endline
    "paper (1KB): KVell peaks ~2.9x LEED's throughput; near saturation LEED's avg latency is ~28.5% lower than KVell, ~47.9% lower than FAWN(100)"

let run ~fast = run_size ~fast ~object_size:1024
