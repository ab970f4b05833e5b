(* Figure 1: energy efficiency (KIOPS/J) of raw persistent I/O on the
   three platforms as storage capacity grows — the motivation experiment.
   Capacity grows by maxing out a node's drives first (JBOFs) and then
   adding nodes; energy efficiency = aggregate IOPS / aggregate watts. *)

open Leed_sim
open Leed_platform
open Leed_blockdev
module Driver = Leed_workload.Workload.Driver

let gb = 1024 * 1024 * 1024

(* Measure one SSD's 4 KB saturated random-read IOPS and sequential-write
   IOPS by direct device simulation. *)
let measure_ssd profile =
  let scaled = Blockdev.with_capacity profile (256 * 1024 * 1024) in
  let read_iops =
    Sim.run (fun () ->
        let d = Blockdev.create scaled in
        (* Reads completed so far; the next read's block is this count
           mod 1000. *)
        let n = ref 0 in
        (Driver.closed ~workers:64 ~duration:0.05 (fun _ ->
             ignore (Blockdev.read d ~off:(4096 * (!n mod 1000)) ~len:4096);
             incr n))
          .Driver.throughput)
  in
  let write_iops =
    Sim.run (fun () ->
        let d = Blockdev.create scaled in
        let block = Bytes.create 4096 in
        let off = Array.init 16 (fun w -> w * 8_000_000) in
        (Driver.closed ~workers:16 ~duration:0.05 (fun w ->
             Blockdev.write_seq d ~off:off.(w) block;
             off.(w) <- off.(w) + 4096))
          .Driver.throughput)
  in
  (read_iops, write_iops)

type platform_point = {
  p : Platform.t;
  flash_per_node : int;
  ssd_read : float;
  ssd_write : float;
}

let platform_point p =
  let r, w = measure_ssd p.Platform.ssd in
  { p; flash_per_node = Platform.flash_bytes p; ssd_read = r; ssd_write = w }

(* Energy efficiency at a target capacity: drives fill up first, then
   nodes are added; every provisioned node draws full active power. *)
let efficiency pt ~capacity ~(kind : [ `Read | `Write ]) =
  let ssd_bytes = pt.p.Platform.ssd.Blockdev.capacity_bytes in
  let nodes = max 1 ((capacity + pt.flash_per_node - 1) / pt.flash_per_node) in
  let remaining = capacity - ((nodes - 1) * pt.flash_per_node) in
  let ssds_last = max 1 (min pt.p.Platform.ssd_count ((remaining + ssd_bytes - 1) / ssd_bytes)) in
  let full_ssds = ((nodes - 1) * pt.p.Platform.ssd_count) + ssds_last in
  let per_ssd = match kind with `Read -> pt.ssd_read | `Write -> pt.ssd_write in
  let iops = float_of_int full_ssds *. per_ssd in
  let watts = float_of_int nodes *. Platform.wall_power pt.p ~util:1.0 in
  iops /. watts /. 1e3 (* KIOPS per Joule *)

let capacities = [ 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384 ]

let run () =
  let pi = platform_point Platform.embedded_node in
  let server = platform_point Platform.server_jbof in
  let smartnic = platform_point Platform.smartnic_jbof in
  let series kind =
    List.map
      (fun (pt : platform_point) ->
        ( pt.p.Platform.name,
          List.map (fun c -> efficiency pt ~capacity:(c * gb) ~kind) capacities ))
      [ pi; server; smartnic ]
  in
  let xs = List.map (fun c -> Printf.sprintf "%dGB" c) capacities in
  Leed_stats.Report.series ~title:"Figure 1a: 4KB random read energy efficiency (KIOPS/J)"
    ~x_label:"capacity" ~xs (series `Read);
  Leed_stats.Report.series ~title:"Figure 1b: 4KB sequential write energy efficiency (KIOPS/J)"
    ~x_label:"capacity" ~xs (series `Write);
  let r16 k pt = efficiency pt ~capacity:(16384 * gb) ~kind:k in
  Printf.printf
    "at 16TB: smartnic/server = %.1fx (paper 4.8x rd / 4.7x wr), smartnic/pi = %.1fx rd %.1fx wr (paper 56.5x / 26.4x)\n"
    (r16 `Read smartnic /. r16 `Read server)
    (r16 `Read smartnic /. r16 `Read pi)
    (r16 `Write smartnic /. r16 `Write pi)
