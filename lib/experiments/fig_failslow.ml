(* Fail-slow gray failure: GET tail latency with and without the
   defenses (hedged CRRS reads, adaptive timeouts, slow-outlier
   escalation, deadline shedding).

   Three same-seed chaos runs over one hand-built schedule — a single
   node's NIC-CPU compute path inflated 10x behind healthy heartbeats,
   plus a creeping inbound jitter ramp on its links, and no fail-stop
   noise:

     fault-free        the schedule is empty (the tail baseline)
     fail-slow naive   static timeout, no hedging, no slow detection —
                       clients keep routing to the slow node because its
                       engine-side tokens stay high (the gray-failure
                       blind spot), so the tail degrades by roughly the
                       slowdown factor
     fail-slow hedged  full defenses: hedges escape the slow primary
                       before detection, the escalation ladder
                       deprioritizes / drains / fences it after

   The claim this figure carries: under the 10x fail-slow, the hedged
   run holds GET p99.9 within ~2x of fault-free while naive degrades by
   an order of magnitude. *)

open Leed_fault

(* Node 1 is never the chain for every key, so hedges always have a
   healthy sibling to escape to; factor 10 against a 3-wide net_cpu
   makes the convoy visible at closed-loop load without collapsing the
   node entirely. *)
let schedule ~duration =
  Fault.Schedule.make
    [
      {
        Fault.Schedule.at = 0.1 *. duration;
        fault = Fault.Schedule.Fail_slow { node = 1; factor = 10.0; duration = 0.75 *. duration };
      };
      {
        Fault.Schedule.at = 0.15 *. duration;
        fault =
          Fault.Schedule.Link_jitter_ramp
            {
              node = 1;
              peak = 150e-6;
              ramp = 0.1 *. duration;
              duration = 0.5 *. duration;
              inbound = true;
            };
      };
    ]

type point = { label : string; report : Fault.Chaos.report }

let points ?(seed = 42) ?(fast = false) () =
  let duration = if fast then 4.0 else 8.0 in
  (* Read-heavy: the figure is about the GET tail. The 1 s per-op
     deadline arms the shedding path for the defended runs; the naive
     run drops it too — deadline shedding is one of the defenses. *)
  let base =
    {
      Fault.Chaos.default_config with
      Fault.Chaos.seed;
      duration;
      write_ratio = 0.25;
      op_deadline = 1.0;
      schedule = Some (schedule ~duration);
    }
  in
  [
    {
      label = "fault-free";
      report = Fault.Chaos.run { base with Fault.Chaos.schedule = Some (Fault.Schedule.make []) };
    };
    {
      label = "fail-slow naive";
      report = Fault.Chaos.run { base with Fault.Chaos.naive = true; op_deadline = 0. };
    };
    { label = "fail-slow hedged"; report = Fault.Chaos.run base };
  ]

let p999_ratios pts =
  match pts with
  | [ clean; naive; hedged ] ->
      let ratio (p : point) =
        if clean.report.Fault.Chaos.get_p999 > 0. then
          p.report.Fault.Chaos.get_p999 /. clean.report.Fault.Chaos.get_p999
        else 0.
      in
      Some (ratio naive, ratio hedged)
  | _ -> None

let print pts =
  let us v = Printf.sprintf "%.0f" (Leed_sim.Sim.to_us v) in
  Leed_stats.Report.table ~title:"Fail-slow gray failure: GET tail, defended vs naive"
    ~columns:
      [ "config"; "get p99(us)"; "p99.9(us)"; "hedges"; "wins"; "sheds"; "slow evts"; "detect(s)" ]
    (List.map
       (fun { label; report = r } ->
         let n = Leed_core.Backend.count r.Fault.Chaos.counters in
         [
           label;
           us r.Fault.Chaos.get_p99;
           us r.Fault.Chaos.get_p999;
           string_of_int (n "client.hedges");
           string_of_int (n "client.hedge_wins");
           string_of_int (Leed_core.Backend.sheds r.Fault.Chaos.counters);
           string_of_int (n "control.slow_events");
           (if r.Fault.Chaos.detection_latency < 0. then "-"
            else Printf.sprintf "%.2f" r.Fault.Chaos.detection_latency);
         ])
       pts);
  match p999_ratios pts with
  | Some (naive, hedged) ->
      Printf.printf
        "  p99.9 vs fault-free: naive %.1fx, hedged %.1fx (hedging held the tail through a 10x \
         fail-slow)\n"
        naive hedged;
      List.iter
        (fun (p : point) ->
          if not p.report.Fault.Chaos.ok then
            Printf.printf "  WARNING: %s violated a chaos invariant\n" p.label)
        pts
  | None -> ()

let run ~fast = print (points ~fast ())
