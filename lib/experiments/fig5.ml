(* Figure 5: energy efficiency (K queries per Joule) of the three
   persistent KV systems — Embedded-FAWN (10 Pi nodes, 42 W),
   Server-KVell (3 Xeon JBOFs, 756 W), SmartNIC-LEED (3 Stingray JBOFs,
   157.5 W) — across the six YCSB workloads, for 256 B and 1 KB objects.
   Replication factor 3 everywhere; saturated closed-loop throughput
   divided by the paper's measured wall power.

   All three systems run through the backend-generic boundary, sized and
   saturated as Exp_common.compared_systems sets them; the only
   per-system facts here are display name, window and seed. *)

open Leed_sim
open Leed_core
open Leed_workload

(* Figure 5's own display name, measurement window (slow systems need
   longer windows for the same statistical weight) and seed per system,
   in the order the systems are built and printed. *)
let runs =
  [
    ("fawn", "Embedded-FAWN", 1.0, 23);
    ("kvell", "Server-KVell", 0.1, 22);
    ("leed", "SmartNIC-LEED", 0.12, 21);
  ]

type system_run = {
  display : string;
  setup : Exp_common.setup;
  nkeys : int;
  workers : int;
  window : float;
  seed : int;
}

let systems ~object_size =
  let sized = Exp_common.compared_systems ~object_size in
  List.map
    (fun (name, display, window, seed) ->
      let sys = List.find (fun (s : Exp_common.system) -> s.Exp_common.name = name) sized in
      {
        display;
        setup = sys.Exp_common.make ();
        nkeys = sys.Exp_common.nkeys;
        workers = sys.Exp_common.workers;
        window;
        seed;
      })
    runs

let run_size ~fast ~object_size =
  Sim.run (fun () ->
      let systems = systems ~object_size in
      List.iter
        (fun s ->
          Exp_common.preload s.setup ~nkeys:s.nkeys ~value_size:(object_size - Workload.key_size))
        systems;
      let mixes = Workload.all_ycsb () in
      let rows =
        List.map
          (fun sys ->
            ( sys.display,
              List.map
                (fun mix ->
                  let gen =
                    Workload.generator ~object_size mix ~nkeys:sys.nkeys (Rng.create sys.seed)
                  in
                  let m =
                    Exp_common.measure_closed ~label:mix.Workload.label ~setup:sys.setup
                      ~clients:sys.workers ~duration:(Exp_common.dur ~fast sys.window) ~gen ()
                  in
                  m.Backend.queries_per_joule /. 1e3)
                mixes ))
          systems
      in
      Leed_stats.Report.series
        ~title:
          (Printf.sprintf "Figure 5 (%dB): energy efficiency (KQueries/Joule)" object_size)
        ~x_label:"workload"
        ~xs:(List.map (fun m -> m.Workload.label) mixes)
        rows;
      (* headline ratios *)
      let avg r = List.fold_left ( +. ) 0. r /. float_of_int (List.length r) in
      match rows with
      | [ (_, fawn); (_, kvell); (_, leed) ] ->
          Printf.printf "avg LEED/KVell = %.1fx (paper %s), LEED/FAWN = %.1fx (paper %s)\n"
            (avg leed /. avg kvell)
            (if object_size = 256 then "4.2x" else "3.8x")
            (avg leed /. avg fawn)
            (if object_size = 256 then "17.5x" else "19.1x")
      | _ -> ())

let run ~fast =
  run_size ~fast ~object_size:256;
  run_size ~fast ~object_size:1024
