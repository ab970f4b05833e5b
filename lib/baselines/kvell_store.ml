(* KVell [SOSP'19] — the server-JBOF baseline: a shared-nothing,
   unordered-on-disk persistent KV store with batched asynchronous I/O.

   Each worker owns a slice of the flash and, in DRAM: a hash index
   (key → slot), a free list of slots, and a page cache. Items live in
   fixed-size slots of a slab ("no ordering on disk"); updates are
   in-place (random writes — no log, no compaction, no sorting).

   Execution follows KVell's architecture: every command is enqueued to
   its worker; the worker loop drains a batch, looks up the index for each
   command *sequentially on its pinned core*, then issues the batch's
   device I/O asynchronously and completes the commands. Batching is what
   maxes out SSD bandwidth — and what inflates latency under load, the
   effect Table 3 shows on the wimpy SmartNIC cores. DRAM cost is ~64 B
   per object, which caps the addressable capacity (Table 3 row 1). The
   index's CPU cost is the flat [index_cycles] charge per op; the hash
   table only answers key → slot, and nothing iterates it. *)

open Leed_sim
open Leed_blockdev

exception Dram_full
(* The in-memory index/page-cache budget is exhausted (Table 3 row 1). *)

exception Slab_full
(* The worker's slab slice has no free slot left. *)

exception Corrupt of string
(* A slot failed validation after an at-rest bit flip. *)

type config = {
  nworkers : int;
  slot_size : int;         (* slab item class *)
  dram_budget : int;       (* total for index + cache across workers *)
  index_cycles : float;    (* flat per-op index cost, A72-equivalent *)
  charge : int -> float -> unit; (* worker -> cycles -> () *)
}

let default_config =
  {
    nworkers = 4;
    slot_size = 1024;
    dram_budget = 512 * 1024 * 1024;
    index_cycles = 60_000.;
    charge = (fun _ _ -> ());
  }

let index_bytes_per_object = 64 (* ~64 B: index entry + free list + cache meta *)
let page_cache_frac = 0.25 (* share of DRAM for the page cache *)
let batch_size = 64 (* device-access batching factor *)

type op = OGet of string | OPut of string * bytes | ODel of string

type outcome = Found of bytes | Missing | Done | Full | No_slot | Corrupted

type pending = { op : op; completion : outcome Sim.Ivar.t }

type worker = {
  wid : int;
  dev : Blockdev.t;
  base : int;
  nslots : int;
  index : (string, int) Hashtbl.t; (* key -> slot index *)
  free_list : int Queue.t;
  mutable next_slot : int;
  inbox : pending Sim.Mailbox.t;
  io_window : Sim.Resource.t; (* bounds the worker's in-flight device I/O *)
  (* page cache: slot -> bytes, FIFO-evicted at capacity *)
  cache : (int, bytes) Hashtbl.t;
  cache_order : int Queue.t;
  cache_capacity : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

type t = {
  config : config;
  workers : worker array;
  max_objects : int;
  mutable objects : int;
  mutable reads : int;
  mutable writes : int;
  mutable running : bool;
  mutable batches : int;
  mutable batched_ops : int;
  mutable corrupt : int; (* slots that failed validation on read *)
}

(* Workers split the given devices' usable space evenly. *)
let create ?(config = default_config) ~devs () =
  let ndev = Array.length devs in
  if ndev = 0 then invalid_arg "Kvell_store.create: need at least one device";
  let per_worker_cache =
    int_of_float (page_cache_frac *. float_of_int config.dram_budget)
    / config.nworkers / config.slot_size
  in
  let workers =
    Array.init config.nworkers (fun wid ->
        let dev = devs.(wid mod ndev) in
        let share = Blockdev.capacity dev / ((config.nworkers + ndev - 1) / ndev) in
        let base = wid / ndev * share in
        {
          wid;
          dev;
          base;
          nslots = share / config.slot_size;
          index = Hashtbl.create 1024;
          free_list = Queue.create ();
          next_slot = 0;
          inbox = Sim.Mailbox.create ();
          io_window =
            Sim.Resource.create
              ~name:(Printf.sprintf "kvell.w%d.io" wid)
              ~capacity:batch_size ();
          cache = Hashtbl.create 1024;
          cache_order = Queue.create ();
          cache_capacity = max 16 per_worker_cache;
          cache_hits = 0;
          cache_misses = 0;
        })
  in
  let index_budget =
    int_of_float ((1. -. page_cache_frac) *. float_of_int config.dram_budget)
  in
  {
    config;
    workers;
    max_objects = index_budget / index_bytes_per_object;
    objects = 0;
    reads = 0;
    writes = 0;
    running = false;
    batches = 0;
    batched_ops = 0;
    corrupt = 0;
  }

let objects t = t.objects
let max_objects t = t.max_objects

let addressable_fraction t ~object_size ~flash_bytes =
  Float.min 1.0 (float_of_int (t.max_objects * object_size) /. float_of_int flash_bytes)

let worker_of_key t key = t.workers.(Leed_core.Codec.hash_key key mod t.config.nworkers)

let cache_put w slot data =
  if not (Hashtbl.mem w.cache slot) then begin
    Hashtbl.replace w.cache slot data;
    Queue.push slot w.cache_order;
    while Hashtbl.length w.cache > w.cache_capacity do
      let victim = Queue.pop w.cache_order in
      Hashtbl.remove w.cache victim
    done
  end
  else Hashtbl.replace w.cache slot data

let encode_slot key value slot_size =
  let out = Bytes.make slot_size '\000' in
  Bytes.set_uint8 out 0 (String.length key);
  Bytes.set_int32_le out 1 (Int32.of_int (Bytes.length value));
  Bytes.blit_string key 0 out 8 (String.length key);
  Bytes.blit value 0 out (8 + String.length key) (Bytes.length value);
  out

let decode_slot buf =
  let klen = Bytes.get_uint8 buf 0 in
  let vlen = Int32.to_int (Bytes.get_int32_le buf 1) in
  if vlen < 0 || 8 + klen + vlen > Bytes.length buf then
    raise (Corrupt "kvell: rotted slot header");
  let key = Bytes.sub_string buf 8 klen in
  let value = Bytes.sub buf (8 + klen) vlen in
  (key, value)

let alloc_slot w =
  match Queue.take_opt w.free_list with
  | Some s -> Some s
  | None when w.next_slot >= w.nslots -> None
  | None ->
      let s = w.next_slot in
      w.next_slot <- s + 1;
      Some s

(* --- the worker loop: index phase (sequential CPU) then device phase
   (asynchronous batch) --- *)

(* Device action decided during the index phase. *)
type action =
  | Read_slot of int * pending
  | Write_slot of int * bytes * pending
  | Complete of outcome * pending

let index_phase t w pend =
  t.config.charge w.wid t.config.index_cycles;
  match pend.op with
  | OGet key -> (
      match Hashtbl.find_opt w.index key with
      | None -> Complete (Missing, pend)
      | Some slot -> (
          t.reads <- t.reads + 1;
          match Hashtbl.find_opt w.cache slot with
          | Some d -> (
              w.cache_hits <- w.cache_hits + 1;
              match decode_slot d with
              | k, v when String.equal k key -> Complete (Found v, pend)
              | _ | (exception (Corrupt _ | Invalid_argument _)) ->
                  (* A rotted slot fails this one op; drop it from the
                     cache so it is not served again. *)
                  t.corrupt <- t.corrupt + 1;
                  Hashtbl.remove w.cache slot;
                  Complete (Corrupted, pend))
          | None ->
              w.cache_misses <- w.cache_misses + 1;
              Read_slot (slot, pend)))
  | OPut (key, value) -> (
      match Hashtbl.find_opt w.index key with
      | Some slot ->
          t.writes <- t.writes + 1;
          Write_slot (slot, encode_slot key value t.config.slot_size, pend)
      | None when t.objects >= t.max_objects -> Complete (Full, pend)
      | None -> (
          match alloc_slot w with
          | None -> Complete (No_slot, pend)
          | Some slot ->
              Hashtbl.replace w.index key slot;
              t.objects <- t.objects + 1;
              t.writes <- t.writes + 1;
              Write_slot (slot, encode_slot key value t.config.slot_size, pend)))
  | ODel key -> (
      match Hashtbl.find_opt w.index key with
      | None -> Complete (Done, pend)
      | Some slot ->
          Hashtbl.remove w.index key;
          Queue.push slot w.free_list;
          Hashtbl.remove w.cache slot;
          t.objects <- t.objects - 1;
          t.writes <- t.writes + 1;
          (* persist the freed slot header *)
          Write_slot (slot, Bytes.make t.config.slot_size '\000', pend))

let device_phase t w action () =
  match action with
  | Complete (outcome, pend) -> Sim.Ivar.fill pend.completion outcome
  | Read_slot (slot, pend) -> (
      let d = Blockdev.read w.dev ~off:(w.base + (slot * t.config.slot_size)) ~len:t.config.slot_size in
      let key = match pend.op with OGet k | OPut (k, _) | ODel k -> k in
      match decode_slot d with
      | k, v when String.equal k key ->
          cache_put w slot d;
          Sim.Ivar.fill pend.completion (Found v)
      | _ | (exception (Corrupt _ | Invalid_argument _)) ->
          (* Complete the single command as Corrupted: the exception must
             never escape this spawned I/O process (it would leave the
             submitter blocked on the ivar forever and kill the run). *)
          t.corrupt <- t.corrupt + 1;
          Sim.Ivar.fill pend.completion Corrupted)
  | Write_slot (slot, data, pend) ->
      Blockdev.write_rand w.dev ~off:(w.base + (slot * t.config.slot_size)) data;
      cache_put w slot data;
      Sim.Ivar.fill pend.completion Done

let worker_loop t w =
  while t.running do
    let first = Sim.Mailbox.recv w.inbox in
    let batch = ref [ first ] in
    let n = ref 1 in
    let continue = ref true in
    while !n < batch_size && !continue do
      match Sim.Mailbox.try_recv w.inbox with
      | Some p ->
          batch := p :: !batch;
          incr n
      | None -> continue := false
    done;
    let batch = List.rev !batch in
    t.batches <- t.batches + 1;
    t.batched_ops <- t.batched_ops + List.length batch;
    (* Index phase: sequential on this worker's core. *)
    let actions = List.map (fun p -> index_phase t w p) batch in
    (* Device phase: asynchronous — the worker keeps indexing the next
       batch while up to [batch_size] of its I/Os are in flight (KVell's
       io_uring-style submission; the window is the paper's queue depth). *)
    List.iter
      (fun a ->
        match a with
        | Complete _ -> device_phase t w a ()
        | Read_slot _ | Write_slot _ ->
            Sim.Resource.acquire w.io_window;
            Sim.spawn (fun () ->
                device_phase t w a ();
                Sim.Resource.release w.io_window))
      actions
  done

let start t =
  if not t.running then begin
    t.running <- true;
    Array.iter (fun w -> Sim.spawn (fun () -> worker_loop t w)) t.workers
  end

let submit t op =
  if not t.running then start t;
  let key = match op with OGet k | OPut (k, _) | ODel k -> k in
  let w = worker_of_key t key in
  let pend = { op; completion = Sim.Ivar.create () } in
  Sim.Mailbox.send w.inbox pend;
  Sim.Ivar.read pend.completion

let get t key =
  match submit t (OGet key) with
  | Found v -> Some v
  | Missing | Done -> None
  | Full -> raise Dram_full
  | No_slot -> raise Slab_full
  | Corrupted -> raise (Corrupt "kvell: rotted slot")

(* An item that cannot fit one slot, or whose key length the one-byte slot
   header cannot record, is refused here, before it reaches the worker,
   so it fails only this call. *)
let put t key value =
  Leed_core.Codec.check_key ~fn:"Kvell_store.put" key;
  if String.length key + Bytes.length value + 8 > t.config.slot_size then
    invalid_arg "Kvell_store.put: item exceeds slot size";
  match submit t (OPut (key, value)) with
  | Full -> raise Dram_full
  | No_slot -> raise Slab_full
  | Found _ | Missing | Done | Corrupted -> ()

let del t key = ignore (submit t (ODel key))

let corrupt_reads t = t.corrupt

let avg_batch t = if t.batches = 0 then 0. else float_of_int t.batched_ops /. float_of_int t.batches

type cache_stats = { hits : int; misses : int }

let cache_stats t =
  Array.fold_left
    (fun acc w -> { hits = acc.hits + w.cache_hits; misses = acc.misses + w.cache_misses })
    { hits = 0; misses = 0 } t.workers
