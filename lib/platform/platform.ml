(* Platform descriptions for the three cluster architectures the paper
   compares (§2.1, §4.1), plus the CPU cost and wall-power models.

   The numbers are the paper's: Stingray PS1100R (8×A72 @3 GHz, 8 GB DRAM,
   100 GbE, 52.5 W active / 45 W idle), Supermicro-class server JBOF
   (2×Xeon Gold 5218, 96 GB, 100 GbE, 252 W per node), Raspberry Pi 3B+
   (4×A53 @1.4 GHz, 1 GB, 1 GbE over USB2, 3.6 W idle / 4.2 W active). *)

type cpu_spec = {
  cores : int;
  ghz : float;
  (* Per-cycle useful work relative to the Stingray's A72 (captures issue
     width / cache hierarchy differences; the A53 is narrower, the Xeon far
     wider). *)
  perf : float;
}

type t = {
  name : string;
  cpu : cpu_spec;
  dram_bytes : int;
  nic_gbps : float;
  ssd : Leed_blockdev.Blockdev.profile;
  ssd_count : int;
  idle_watts : float;
  active_watts : float;
  (* true when the software stack polls (SPDK-style): cores draw near-max
     power whenever the node is serving, regardless of load. *)
  polling : bool;
}

let gb n = n * 1024 * 1024 * 1024

let smartnic_jbof =
  {
    name = "smartnic-jbof";
    cpu = { cores = 8; ghz = 3.0; perf = 1.0 };
    dram_bytes = gb 8;
    nic_gbps = 100.;
    ssd = Leed_blockdev.Blockdev.dct983;
    ssd_count = 4;
    idle_watts = 45.0;
    active_watts = 52.5;
    polling = true;
  }

let server_jbof =
  {
    name = "server-jbof";
    cpu = { cores = 32; ghz = 2.3; perf = 2.6 };
    dram_bytes = gb 96;
    nic_gbps = 100.;
    ssd = Leed_blockdev.Blockdev.dct983;
    ssd_count = 8;
    idle_watts = 165.0;
    active_watts = 252.0;
    polling = true;
  }

let embedded_node =
  {
    name = "raspberry-pi-3b+";
    cpu = { cores = 4; ghz = 1.4; perf = 0.6 };
    dram_bytes = gb 1;
    nic_gbps = 1.;
    ssd = Leed_blockdev.Blockdev.sandisk_sd;
    ssd_count = 1;
    idle_watts = 3.6;
    active_watts = 4.2;
    polling = false;
  }

let flash_bytes t = t.ssd_count * t.ssd.Leed_blockdev.Blockdev.capacity_bytes

(* Flash:DRAM ratio — the storage-hierarchy skewness of Table 1. *)
let skewness t = float_of_int (flash_bytes t) /. float_of_int t.dram_bytes

(* Seconds of one core executing [cycles] of A72-equivalent work. *)
let seconds_of_cycles t cycles = cycles /. (t.cpu.ghz *. 1e9 *. t.cpu.perf)

(* Wall power at a given average utilisation in [0,1]. Polling stacks burn
   close to max whenever up (the paper measured +7.5 W for 8 polled cores
   over the 45 W idle). *)
let wall_power t ~util =
  if t.polling then t.active_watts
  else t.idle_watts +. ((t.active_watts -. t.idle_watts) *. util)

(* ------------------------------------------------------------------ *)
(* CPU execution model: a pool of cores (or pinned single cores) on which
   request processing charges cycle costs. *)

module Cpu = struct
  open Leed_sim

  type nonrec t = { platform : t; pool : Sim.Resource.t }

  let create platform =
    { platform; pool = Sim.Resource.create ~name:(platform.name ^ ".cpu") ~capacity:platform.cpu.cores () }

  (* A dedicated core (capacity-1 resource), for LEED's static core↔SSD
     mapping (§3.4). *)
  let pinned_core platform i =
    Sim.Resource.create ~name:(Printf.sprintf "%s.core%d" platform.name i) ~capacity:1 ()

  let execute t ~cycles =
    Sim.Resource.with_ t.pool (fun () -> Sim.delay (seconds_of_cycles t.platform cycles))

  let execute_on platform core ~cycles =
    Sim.Resource.with_ core (fun () -> Sim.delay (seconds_of_cycles platform cycles))

  let utilisation t = Sim.Resource.utilisation t.pool
end
