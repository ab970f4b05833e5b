(* Data-swapping demo (§3.6): hammer one SSD of a JBOF with writes while
   the other three idle, and watch the engine redirect the burst into
   their swap regions — then merge everything back home.

   Run with: dune exec examples/swap_demo.exe *)

open Leed_sim
open Leed_core

let key = Leed_workload.Workload.key_of_id

let print_ssd_state e tag =
  Printf.printf "  [%s]\n" tag;
  Array.iteri
    (fun i s ->
      let st = Engine.ssd_stats s in
      Printf.printf "    ssd%d: executed=%5d swapped-out=%4d swapped-in=%4d tokens=%d\n" i
        st.Engine.executed st.Engine.swapped_out st.Engine.swapped_in st.Engine.capacity)
    (Engine.ssds e)

let () =
  Sim.run (fun () ->
      let config =
        { (Leed_experiments.Exp_common.engine_config ~swap_threshold:12 ()) with
          Engine.partitions_per_ssd = 1 }
      in
      let e, _ = Leed_experiments.Exp_common.jbof_engine ~config () in
      print_endline "== Intra-JBOF data swapping demo: 4 SSDs, all writes to SSD 0 ==";

      (* Partition 0 lives on SSD 0; flood it. *)
      let n = 2_048 in
      Leed_workload.Workload.Driver.spread ~workers:64 ~n (fun id ->
          Result.get_ok (Engine.submit e ~pid:0 (Engine.Put (key id, Bytes.make 1024 'x'))));
      print_ssd_state e "after write burst";

      let st = Engine.store (Engine.partition e 0) in
      Printf.printf "  store 0: %d objects, %d puts executed in a swap region, %d segments currently swapped\n"
        (Store.objects st)
        (Store.counters st).Store.swapped
        (List.length (Segtbl.swapped_out (Store.segtbl st)));

      (* Everything readable — GETs follow the segment table to foreign
         swap regions transparently. *)
      let missing = ref 0 in
      for i = 0 to n - 1 do
        match Engine.submit e ~pid:0 (Engine.Get (key i)) with
        | Ok (Some _) -> ()
        | _ -> incr missing
      done;
      Printf.printf "  readable: %d/%d (some via foreign SSDs)\n" (n - !missing) n;

      (* Idle a while: the compactor merges swapped segments home and the
         engine resets the drained swap regions. *)
      Sim.delay 3.0;
      Printf.printf "\nafter merge-back (t=%.1fs):\n" (Sim.now ());
      Printf.printf "  segments still swapped: %d, merged back: %d\n"
        (List.length (Segtbl.swapped_out (Store.segtbl st)))
        (Store.counters st).Store.merged;
      let missing = ref 0 in
      for i = 0 to n - 1 do
        match Engine.submit e ~pid:0 (Engine.Get (key i)) with
        | Ok (Some _) -> ()
        | _ -> incr missing
      done;
      Printf.printf "  readable: %d/%d (all home again)\n" (n - !missing) n)
