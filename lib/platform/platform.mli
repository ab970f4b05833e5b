(** Platform descriptions for the three cluster architectures the paper
    compares (§2.1, §4.1), plus the CPU cost and wall-power models. The
    numbers are the paper's testbed measurements. *)

type cpu_spec = {
  cores : int;
  ghz : float;
  perf : float;
      (** per-cycle useful work relative to the Stingray's A72 (captures
          issue width / cache hierarchy differences) *)
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
  polling : bool;
      (** SPDK-style polling stacks draw near-max power whenever up *)
}

val smartnic_jbof : t
(** Broadcom Stingray PS1100R: 8×A72 @3 GHz, 8 GB DRAM, 100 GbE,
    4×DCT983, 52.5 W active. *)

val server_jbof : t
(** Dual-Xeon storage server: 32 cores, 96 GB, 100 GbE, 8×DCT983, 252 W. *)

val embedded_node : t
(** Raspberry Pi 3B+: 4×A53 @1.4 GHz, 1 GB, 1 GbE over USB2, SD card,
    3.6/4.2 W. *)

val gb : int -> int
val flash_bytes : t -> int

val skewness : t -> float
(** Flash:DRAM ratio — the storage-hierarchy skewness of Table 1. *)

val seconds_of_cycles : t -> float -> float
(** Wall seconds for one core to execute A72-equivalent cycles. *)

val wall_power : t -> util:float -> float
(** Wall watts at an average utilisation; polling platforms draw
    [active_watts] regardless of load. *)

(** CPU execution: pools of cores (or pinned single cores) on which
    request processing charges cycle costs. *)
module Cpu : sig
  type platform := t
  type t

  val create : platform -> t

  val pinned_core : platform -> int -> Leed_sim.Sim.Resource.t
  (** A dedicated core for LEED's static core↔SSD mapping (§3.4). *)

  val execute : t -> cycles:float -> unit
  val execute_on : platform -> Leed_sim.Sim.Resource.t -> cycles:float -> unit
  val utilisation : t -> float
end
