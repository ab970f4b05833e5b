(* Simulated block storage devices.

   A device really stores bytes (so the stores built on top serialize real
   data and can be crash-recovered) and charges simulated time per command:
   reads share a pool of [read_concurrency] internal units (IOPS emerges as
   concurrency / latency), writes additionally serialise on a bandwidth pipe
   that caps sequential/random write throughput — reproducing the
   read/write bandwidth discrepancy LEED's token engine reacts to (§3.4). *)

open Leed_sim
module Trace = Leed_trace.Trace

type profile = {
  name : string;
  capacity_bytes : int;
  block_size : int;
  read_concurrency : int;  (* internal parallelism for reads (≈ IOPS × latency) *)
  read_us : float;         (* base random-read service latency for one block *)
  write_us : float;        (* program latency charged after the transfer *)
  seq_read_mbps : float;   (* large-transfer read bandwidth *)
  seq_write_mbps : float;  (* sequential write bandwidth (append workloads) *)
  rand_write_mbps : float; (* random in-place write bandwidth *)
  jitter : float;          (* relative stddev of service time *)
}

(* Samsung DCT983 960 GB NVMe (the paper's JBOF drive): ~400 K 4 KB random
   read IOPS, ~1 GB/s sequential write. *)
let dct983 =
  {
    name = "samsung-dct983-960g";
    capacity_bytes = 960 * 1024 * 1024 * 1024;
    block_size = 4096;
    read_concurrency = 24;
    read_us = 58.0;
    write_us = 30.0;
    seq_read_mbps = 3000.0;
    seq_write_mbps = 1050.0;
    rand_write_mbps = 170.0;
    jitter = 0.08;
  }

(* SanDisk 32 GB SD card behind the Pi's USB2 bus (shared with the
   Ethernet adapter): QD≈1, ~60-80 MB/s reads, ~10 MB/s effective
   sequential writes, miserable random writes. *)
let sandisk_sd =
  {
    name = "sandisk-sd-32g";
    capacity_bytes = 32 * 1024 * 1024 * 1024;
    block_size = 4096;
    read_concurrency = 2;
    read_us = 600.0;
    write_us = 700.0;
    seq_read_mbps = 70.0;
    seq_write_mbps = 10.0;
    rand_write_mbps = 2.5;
    jitter = 0.15;
  }

(* Zero-latency, infinite-bandwidth device for unit-testing the data
   structures independent of timing. *)
let instant ?(capacity_bytes = 1 lsl 30) () =
  {
    name = "instant";
    capacity_bytes;
    block_size = 4096;
    read_concurrency = 1024;
    read_us = 0.;
    write_us = 0.;
    seq_read_mbps = infinity;
    seq_write_mbps = infinity;
    rand_write_mbps = infinity;
    jitter = 0.;
  }

let with_capacity p capacity_bytes = { p with capacity_bytes }

(* ------------------------------------------------------------------ *)
(* Sparse chunked byte store behind the device. *)

module Storage = struct
  let chunk_bits = 16
  let chunk_size = 1 lsl chunk_bits

  module Chunks = Hashtbl.Make (Int)

  type t = { chunks : bytes Chunks.t }

  let create () = { chunks = Chunks.create 64 }

  let chunk t i =
    match Chunks.find_opt t.chunks i with
    | Some c -> c
    | None ->
        let c = Bytes.make chunk_size '\000' in
        Chunks.add t.chunks i c;
        c

  let write t ~off data =
    let len = Bytes.length data in
    let pos = ref 0 in
    while !pos < len do
      let abs = off + !pos in
      let ci = abs lsr chunk_bits and co = abs land (chunk_size - 1) in
      let n = min (len - !pos) (chunk_size - co) in
      Bytes.blit data !pos (chunk t ci) co n;
      pos := !pos + n
    done

  let read t ~off ~len =
    let out = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let abs = off + !pos in
      let ci = abs lsr chunk_bits and co = abs land (chunk_size - 1) in
      let n = min (len - !pos) (chunk_size - co) in
      (match Chunks.find_opt t.chunks ci with
      | Some c -> Bytes.blit c co out !pos n
      | None -> Bytes.fill out !pos n '\000');
      pos := !pos + n
    done;
    out

  (* The backing chunk itself when the range lies in one written chunk,
     otherwise a fresh copy at position 0. *)
  let read_view t ~off ~len =
    let co = off land (chunk_size - 1) in
    if co + len > chunk_size then (read t ~off ~len, 0)
    else
      match Chunks.find_opt t.chunks (off lsr chunk_bits) with
      | Some c -> (c, co)
      | None -> (read t ~off ~len, 0)

  let resident_bytes t = Chunks.length t.chunks * chunk_size

  (* Chunk indices holding ever-written data, sorted so callers walking
     them stay deterministic regardless of hash-table order. *)
  let resident_chunks t =
    (* simlint: allow hashtbl-order *)
    let ids = Chunks.fold (fun i _ acc -> i :: acc) t.chunks [] in
    List.sort compare ids
end

(* ------------------------------------------------------------------ *)

type stats = {
  mutable n_reads : int;
  mutable n_writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable bits_flipped : int; (* injected at-rest bit-rot events *)
}

exception Failed of string
(* Raised by read/write against a device in the [failed] state. *)

type t = {
  profile : profile;
  storage : Storage.t;
  read_units : Sim.Resource.t;
  write_pipe : Sim.Resource.t;
  rng : Rng.t;
  stats : stats;
  track : Trace.track;
  mutable inflight : int;
  max_queue : int;
  (* fault-injection state: a degraded drive multiplies every service
     time (brown-out, thermal throttle, worn flash); a failed drive
     rejects all commands until repaired *)
  mutable service_factor : float;
  mutable failed : bool;
}

(* Generous default bound: a real NVMe queue pair tops out at 64 K entries,
   and any caller legitimately queueing a million commands on one drive has
   lost its admission control somewhere above. *)
let default_max_queue = 1 lsl 20

let create ?(rng = Rng.create 0) ?(max_queue = default_max_queue) ?(track = Trace.root) profile =
  if max_queue <= 0 then invalid_arg "Blockdev.create: max_queue must be positive";
  {
    profile;
    storage = Storage.create ();
    read_units = Sim.Resource.create ~name:(profile.name ^ ".units") ~capacity:profile.read_concurrency ();
    write_pipe = Sim.Resource.create ~name:(profile.name ^ ".pipe") ~capacity:1 ();
    rng = Rng.split rng;
    stats = { n_reads = 0; n_writes = 0; bytes_read = 0; bytes_written = 0; bits_flipped = 0 };
    track;
    inflight = 0;
    max_queue;
    service_factor = 1.0;
    failed = false;
  }

let profile t = t.profile
let stats t = t.stats
let capacity t = t.profile.capacity_bytes

(* --- fault hooks (driven by the fault-injection subsystem) --- *)

let set_service_factor t f =
  if f <= 0. then invalid_arg "Blockdev.set_service_factor: factor must be positive";
  t.service_factor <- f

let fail t = t.failed <- true
let repair t = t.failed <- false
let is_failed t = t.failed

let check_alive t =
  if t.failed then raise (Failed (t.profile.name ^ ": device failed"))

(* At-rest bit-rot: mutate the backing storage directly, bypassing the
   command path — rot happens to idle flash, so it charges no simulated
   time and ignores the failed state. *)

let flip_bit t ~off ~bit =
  if off < 0 || off >= t.profile.capacity_bytes then
    invalid_arg (Printf.sprintf "%s: flip_bit out of bounds off=%d" t.profile.name off);
  let b = Storage.read t.storage ~off ~len:1 in
  Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor (1 lsl (bit land 7)));
  Storage.write t.storage ~off b;
  t.stats.bits_flipped <- t.stats.bits_flipped + 1

let corrupt_range t ~rng ~off ~len ~flips =
  if off < 0 || len <= 0 || off + len > t.profile.capacity_bytes then
    invalid_arg (Printf.sprintf "%s: corrupt_range out of bounds off=%d len=%d" t.profile.name off len);
  for _ = 1 to flips do
    flip_bit t ~off:(off + Rng.int rng len) ~bit:(Rng.int rng 8)
  done

let resident_bytes t = Storage.resident_bytes t.storage

let corrupt_resident t ~rng ~flips =
  match Storage.resident_chunks t.storage with
  | [] -> 0
  | ids ->
      let ids = Array.of_list ids in
      for _ = 1 to flips do
        let ci = ids.(Rng.int rng (Array.length ids)) in
        let off = (ci lsl Storage.chunk_bits) + Rng.int rng Storage.chunk_size in
        flip_bit t ~off:(min off (t.profile.capacity_bytes - 1)) ~bit:(Rng.int rng 8)
      done;
      flips

(* Outstanding commands, queued or executing: the signal the LEED token
   engine translates into serving capability. *)
let inflight t = t.inflight
let queued t = Sim.Resource.waiting t.read_units

let jittered t base =
  if base <= 0. || t.profile.jitter <= 0. then base
  else max (0.2 *. base) (Rng.normal t.rng ~mean:base ~stddev:(base *. t.profile.jitter))

let transfer_time bytes mbps =
  if mbps = infinity then 0. else float_of_int bytes /. (mbps *. 1e6)

let check_bounds t ~off ~len =
  if off < 0 || len < 0 || off + len > t.profile.capacity_bytes then
    invalid_arg
      (Printf.sprintf "%s: out-of-bounds access off=%d len=%d cap=%d" t.profile.name off len
         t.profile.capacity_bytes)

(* Queue-depth sanitizer: outstanding commands (queued + executing) must
   stay within the configured bound — growth past it means the layer above
   lost its admission control (the LEED engine's token/waiting caps). *)
let check_queue_depth t =
  Invariant.require ~invariant:"blockdev-queue-depth" ~time:(Sim.now ())
    (t.inflight <= t.max_queue)
    ~detail:(fun () ->
      Printf.sprintf "%s: %d commands outstanding exceeds the configured bound %d"
        t.profile.name t.inflight t.max_queue)

(* Queue-depth counter samples: one at submit, one at complete, so the
   viewer reconstructs the exact depth staircase from the trace alone. *)
let trace_depth t =
  Trace.counter ~track:t.track ~cat:"dev" "inflight" [ ("cmds", float_of_int t.inflight) ]

(* Charge one read command of [len] bytes: blocks for its service time. *)
let serve_read t ~off ~len =
  check_alive t;
  check_bounds t ~off ~len;
  t.inflight <- t.inflight + 1;
  check_queue_depth t;
  let service =
    (Sim.us (jittered t t.profile.read_us) +. transfer_time len t.profile.seq_read_mbps)
    *. t.service_factor
  in
  let serve () = Sim.Resource.with_ t.read_units (fun () -> Sim.delay service) in
  if Trace.on () then begin
    trace_depth t;
    Trace.span ~track:t.track ~cat:"dev" "read" ~args:[ ("bytes", Trace.Int len) ] serve
  end
  else serve ();
  t.inflight <- t.inflight - 1;
  if Trace.on () then trace_depth t;
  t.stats.n_reads <- t.stats.n_reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + len

let read t ~off ~len =
  serve_read t ~off ~len;
  Storage.read t.storage ~off ~len

let read_view t ~off ~len =
  serve_read t ~off ~len;
  Storage.read_view t.storage ~off ~len

let write_kind t ~off data kind =
  check_alive t;
  let len = Bytes.length data in
  check_bounds t ~off ~len;
  t.inflight <- t.inflight + 1;
  check_queue_depth t;
  let bw = match kind with `Seq -> t.profile.seq_write_mbps | `Rand -> t.profile.rand_write_mbps in
  (* A random write smaller than a flash page still costs a full
     read-modify-write of the page. *)
  let priced_len = match kind with `Seq -> len | `Rand -> max len t.profile.block_size in
  let serve () =
    Sim.Resource.with_ t.read_units (fun () ->
        Sim.Resource.with_ t.write_pipe (fun () ->
            Sim.delay (transfer_time priced_len bw *. t.service_factor));
        Sim.delay (Sim.us (jittered t t.profile.write_us) *. t.service_factor))
  in
  if Trace.on () then begin
    trace_depth t;
    Trace.span ~track:t.track ~cat:"dev"
      (match kind with `Seq -> "write.seq" | `Rand -> "write.rand")
      ~args:[ ("bytes", Trace.Int len) ]
      serve
  end
  else serve ();
  t.inflight <- t.inflight - 1;
  if Trace.on () then trace_depth t;
  t.stats.n_writes <- t.stats.n_writes + 1;
  t.stats.bytes_written <- t.stats.bytes_written + len;
  Storage.write t.storage ~off data

(* Sequential append writes: priced at the drive's sequential bandwidth. *)
let write_seq t ~off data = write_kind t ~off data `Seq

(* Random in-place writes: priced at the (much lower) random-write bandwidth. *)
let write_rand t ~off data = write_kind t ~off data `Rand

(* Crash simulation hook: the persistent contents survive, all volatile
   queueing/timing state is fresh. Injected fault state (degradation, a
   dead drive) is physical, so it survives the reboot too. *)
let reboot t =
  {
    (create ~rng:t.rng ~max_queue:t.max_queue ~track:t.track t.profile) with
    storage = t.storage;
    service_factor = t.service_factor;
    failed = t.failed;
  }

let utilisation t = Sim.Resource.utilisation t.read_units

(* Equivalent fully-busy device-seconds since the run started: the time
   integral of in-use read units over their capacity. This is the
   observed-activity signal the energy model consumes — degraded drives
   (longer service times) accumulate it faster at equal load. *)
let busy_seconds t =
  Sim.Resource.busy_time t.read_units /. float_of_int (Sim.Resource.capacity t.read_units)
