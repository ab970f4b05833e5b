(* The LEED per-partition data store (§3.2, §3.3).

   One store owns a key range on one SSD partition, holding a circular key
   log (segments = arrays of ≤512 B buckets) and a circular value log, with
   only the segment table resident in DRAM. Command costs in NVMe accesses
   match the paper: GET = 2 (segment read + value read), PUT = 3 with the
   segment read and value append overlapped, DEL = 2.

   The store can execute a PUT against *foreign* logs (another SSD's swap
   region) — that is the §3.6 data-swapping hook driven by the I/O engine —
   and its compactor merges swapped segments back home. *)

open Leed_sim
open Leed_stats

type config = {
  nsegments : int;
  compact_trigger : float; (* log occupancy that wakes the compactor *)
  compact_target : float;  (* occupancy the compactor drives down to *)
  subcompactions : int;    (* S-way intra-parallelism (§3.3.1) *)
  compaction_window : int; (* bytes examined per compaction round *)
}

let default_config =
  {
    nsegments = 4096;
    compact_trigger = 0.85;
    compact_target = 0.60;
    subcompactions = 4;
    compaction_window = 256 * 1024;
  }

let max_value_size = 1 lsl 20

(* CPU cycle costs of the software path (A72-equivalent cycles); the
   simulation charges these on the core mapped to the store's SSD. *)
module Costs = struct
  let hash_lookup = 600.
  let bucket_search_per_item = 60.
  let encode_per_item = 80.
  let decode_per_item = 70.
  let command_setup = 800.
end

type op_kind = Get | Put | Del

type op_stats = {
  latency : Histogram.t;
  ssd_time : Summary.t;
  cpu_time : Summary.t;
  mutable count : int;
  mutable nvme_accesses : int;
}

let make_op_stats () =
  {
    latency = Histogram.create ();
    ssd_time = Summary.create ();
    cpu_time = Summary.create ();
    count = 0;
    nvme_accesses = 0;
  }

type t = {
  name : string;
  config : config;
  segtbl : Segtbl.t;
  klog : Circular_log.t;
  vlog : Circular_log.t;
  home_dev : int;
  (* resolve a foreign (dev, kind) to the log holding swapped data; wired
     by the JBOF node. *)
  mutable resolve : int -> Circular_log.t;
  (* charge CPU cycles on the owning core; wired by the I/O engine. *)
  mutable charge : float -> unit;
  get_stats : op_stats;
  put_stats : op_stats;
  del_stats : op_stats;
  mutable compactions : int;
  mutable objects : int; (* live (non-tombstone) items *)
  mutable swapped_puts : int;
  mutable merged_back : int;
  mutable corrupt_reads : int;      (* CRC/decode failures surfaced to callers *)
  mutable salvaged_segments : int;  (* write-path reads that dropped rotted buckets *)
}

exception Corrupt of string
(* A read exhausted its torn-read retries on a checksum failure: the entry
   is rotted at rest, not torn in flight. Surfaced (never swallowed) so the
   node above can read-repair from the next CRRS replica. *)

let create ?(config = default_config) ~name ~klog ~vlog () =
  let home_dev = Circular_log.dev_id klog in
  {
    name;
    config;
    segtbl = Segtbl.create ~nsegments:config.nsegments ~home_dev ();
    klog;
    vlog;
    home_dev;
    resolve =
      (fun dev ->
        if dev = home_dev then klog
        else failwith (Printf.sprintf "%s: no resolver for foreign dev %d" name dev));
    charge = (fun _ -> ());
    get_stats = make_op_stats ();
    put_stats = make_op_stats ();
    del_stats = make_op_stats ();
    compactions = 0;
    objects = 0;
    swapped_puts = 0;
    merged_back = 0;
    corrupt_reads = 0;
    salvaged_segments = 0;
  }

let set_resolver t f = t.resolve <- f
let set_charge t f = t.charge <- f
let name t = t.name
let segtbl t = t.segtbl
let klog t = t.klog
let vlog t = t.vlog
let home_dev t = t.home_dev
let objects t = t.objects
let stats t = function Get -> t.get_stats | Put -> t.put_stats | Del -> t.del_stats

(* Modeled DRAM footprint of the in-memory index — the Challenge-1 number
   (bytes per object must stay below ~0.5). *)
let index_bytes t = Segtbl.modeled_bytes t.segtbl
let index_bytes_per_object t =
  if t.objects = 0 then 0. else float_of_int (index_bytes t) /. float_of_int t.objects

(* --- operation context: attribute wall time to SSD vs CPU (Fig. 11) --- *)

type opctx = { mutable ssd : float; mutable cpu : float; mutable accesses : int }

let timed_ssd ctx f =
  let t0 = Sim.now () in
  let r = f () in
  ctx.ssd <- ctx.ssd +. (Sim.now () -. t0);
  ctx.accesses <- ctx.accesses + 1;
  r

let charge ctx t cycles =
  let t0 = Sim.now () in
  t.charge cycles;
  ctx.cpu <- ctx.cpu +. (Sim.now () -. t0)

let finish ctx t kind t0 =
  let st = stats t kind in
  st.count <- st.count + 1;
  st.nvme_accesses <- st.nvme_accesses + ctx.accesses;
  Histogram.record st.latency (Sim.now () -. t0);
  Summary.add st.ssd_time ctx.ssd;
  Summary.add st.cpu_time ctx.cpu

(* --- segment I/O --- *)

let log_for t dev = if dev = t.home_dev then t.klog else t.resolve dev

(* Where an item's value lives: the home value log, or the foreign log a
   §3.6 swap left it in; and the length of its entry there. *)
let value_log t (it : Codec.item) =
  if it.Codec.vdev = t.home_dev then t.vlog else t.resolve it.Codec.vdev

let value_entry_len (it : Codec.item) = Codec.value_entry_size ~key:it.Codec.key ~vlen:it.Codec.vlen

(* Read an item's whole value entry (a copy), pinning its log so a swap
   region cannot be reset under the read. *)
let read_value_entry ctx t (it : Codec.item) =
  let vlog = value_log t it in
  Circular_log.with_pin vlog (fun () ->
      timed_ssd ctx (fun () ->
          Circular_log.read vlog ~loff:it.Codec.voff ~len:(value_entry_len it)))

(* Decode the segment frame at log offset [loff], held in
   [buf.[off .. off+len)], as its item list. [salvage] marks write-path
   readers (PUT/DEL/compaction/COPY source) that must make progress over a
   rotted segment, so the rewrite that follows rebuilds it clean; GET and
   scrub keep the strict decode, so a corrupt bucket surfaces as [Corrupt]
   and triggers repair. [torn_ok] marks lockless readers (GET), whose
   snapshot a concurrent compaction may tear: only readers holding the
   segment lock run the chain-order sanitizer, which catches a malformed
   chain written by the store itself. *)
let decode_items ?(torn_ok = false) ?(salvage = false) ctx t ~loff buf ~off ~len =
  let s = Codec.decode_segment ~salvage ~off ~len buf in
  if s.Codec.dropped > 0 then t.salvaged_segments <- t.salvaged_segments + 1
  else if not torn_ok then
    Invariant.require ~invariant:"segment-chain-order" ~time:(Sim.now ()) s.Codec.in_order
      ~detail:(fun () ->
        Printf.sprintf "%s: segment at loff=%d has buckets out of chain order" t.name loff);
  charge ctx t (Costs.decode_per_item *. float_of_int (List.length s.Codec.seg_items));
  s.Codec.seg_items

(* Read a whole segment from its log and decode it. The device read is a
   zero-copy view, so it is decoded before anything blocks. *)
let read_segment ?torn_ok ?salvage ctx t (e : Segtbl.entry) =
  let log = log_for t (Segtbl.dev e) in
  let loff = Segtbl.off e and len = Codec.segment_bytes ~chain_len:(Segtbl.chain_len e) in
  let buf, off =
    Circular_log.with_pin log (fun () -> timed_ssd ctx (fun () -> Circular_log.read_view log ~loff ~len))
  in
  decode_items ?torn_ok ?salvage ctx t ~loff buf ~off ~len

(* Append the segment holding [items].

   Invariant maintained here: a segment written to the *home* key log never
   references foreign (swapped, §3.6) values — they are pulled home first.
   This is what lets the JBOF reset a swap region once no segment table
   points into it. *)
let write_segment ctx t ~seg ~items ~(target : Circular_log.t) =
  let items =
    if Circular_log.dev_id target <> t.home_dev then items
    else
      List.map
        (fun it ->
          if it.Codec.vdev <> t.home_dev && not (Codec.is_tombstone it) then begin
            let buf = read_value_entry ctx t it in
            let voff = timed_ssd ctx (fun () -> Circular_log.append t.vlog buf) in
            { it with Codec.voff; vdev = t.home_dev }
          end
          else it)
        items
  in
  charge ctx t (Costs.encode_per_item *. float_of_int (List.length items));
  (* The recovery hints are sampled here, after the blocking pull-home
     and charge. *)
  let data, chain_len =
    Codec.encode_segment ~seg ~log_head:(Circular_log.head target)
      ~log_tail:(Circular_log.tail target) items
  in
  let off = timed_ssd ctx (fun () -> Circular_log.append target data) in
  Segtbl.update t.segtbl ~seg ~dev:(Circular_log.dev_id target) ~off ~chain_len;
  off

(* --- GET (§3.3): SegTbl lookup → key log read → value log read --- *)

let get t key =
  let t0 = Sim.now () in
  let ctx = { ssd = 0.; cpu = 0.; accesses = 0 } in
  charge ctx t (Costs.command_setup +. Costs.hash_lookup);
  let seg = Codec.segment_of_key ~nsegments:t.config.nsegments key in
  (* A GET holds no lock, so a concurrent compaction can relocate what its
     snapshot points at; stale entries stay readable until the log wraps
     over them, and the rare torn read is detected (Corrupt / range check)
     and retried through the segment table. *)
  let rec attempt tries =
    let e = Segtbl.entry t.segtbl seg in
    if not (Segtbl.is_materialised e) then `Ok None
    else
      match
        let items = read_segment ~torn_ok:true ctx t e in
        charge ctx t (Costs.bucket_search_per_item *. float_of_int (List.length items));
        match List.find_opt (fun it -> String.equal it.Codec.key key) items with
        | None -> None
        | Some it when Codec.is_tombstone it -> None
        | Some it ->
            let vlog = value_log t it in
            let len = value_entry_len it in
            let buf, off =
              Circular_log.with_pin vlog (fun () ->
                  timed_ssd ctx (fun () -> Circular_log.read_view vlog ~loff:it.Codec.voff ~len))
            in
            let ve = Codec.decode_value_entry ~off ~len buf in
            if not (String.equal ve.Codec.ve_key key) then raise (Codec.Corrupt "key mismatch");
            Some ve.Codec.ve_value
      with
      | result -> `Ok result
      | exception (Codec.Corrupt _ | Invalid_argument _) when tries < 4 ->
          Sim.yield ();
          attempt (tries + 1)
      (* Retries exhausted: not a torn in-flight read but rot at rest.
         Count it and surface [Corrupt] — never silently escape. *)
      | exception Codec.Corrupt msg -> `Corrupt msg
      | exception Invalid_argument msg -> `Corrupt msg
  in
  match attempt 0 with
  | `Ok result ->
      finish ctx t Get t0;
      result
  | `Corrupt msg ->
      t.corrupt_reads <- t.corrupt_reads + 1;
      finish ctx t Get t0;
      raise (Corrupt msg)

(* Backpressure when a log is out of space: PUTs "are served slowly if the
   new log entry generation speed cannot catch up" (§3.3.1) — the caller
   stalls until the compactor frees room. *)
let wait_for_space t log need =
  let tries = ref 0 in
  while Circular_log.free log < need do
    incr tries;
    if !tries > 50_000 then
      failwith (Printf.sprintf "%s: log %s permanently full" t.name (Circular_log.name log));
    Sim.delay (Sim.us 200.)
  done

(* --- PUT (§3.3): segment read ∥ value append, then segment append ---

   [target] overrides the destination log for swapped writes (§3.6):
   both the value entry and the updated segment land on the foreign SSD's
   swap log. *)

let put ?target t key value =
  Codec.check_key ~fn:"Store.put" key;
  if Bytes.length value > max_value_size then invalid_arg "Store.put: value too large";
  if Bytes.length value = 0 then invalid_arg "Store.put: empty value (reserved as tombstone)";
  let t0 = Sim.now () in
  let ctx = { ssd = 0.; cpu = 0.; accesses = 0 } in
  charge ctx t (Costs.command_setup +. Costs.hash_lookup);
  let seg = Codec.segment_of_key ~nsegments:t.config.nsegments key in
  let klog_target, vlog_target =
    match target with Some log -> (log, log) | None -> (t.klog, t.vlog) in
  if Circular_log.dev_id klog_target <> t.home_dev then t.swapped_puts <- t.swapped_puts + 1;
  (* The headroom beyond the entry itself absorbs racing writers and the
     value compactor's own relocation appends. *)
  wait_for_space t vlog_target
    (Codec.value_entry_size ~key ~vlen:(Bytes.length value) + (2 * t.config.compaction_window));
  (* Key-log headroom is reserved *before* taking the segment lock: the
     compactor needs the same lock to free space, so waiting inside it
     would deadlock. The headroom also covers the compactor's own
     relocation appends. *)
  wait_for_space t klog_target
    (Codec.segment_bytes ~chain_len:8 + t.config.compaction_window);
  let voff = ref (-1) and koff = ref (-1) in
  Segtbl.with_lock t.segtbl seg (fun () ->
      (* A snapshot, still current after the value append blocks: the
         lock keeps every other writer of this entry out. *)
      let e = Segtbl.entry t.segtbl seg in
      (* Overlap the value append with the segment read (the paper's
         latency optimisation: PUT adds only ~10 us over GET). *)
      let items = ref [] in
      Sim.fork_join
        [
          (fun () ->
            let ve = { Codec.ve_seg = seg; ve_key = key; ve_value = value } in
            voff := timed_ssd ctx (fun () -> Circular_log.append vlog_target (Codec.encode_value_entry ve)));
          (fun () -> if Segtbl.is_materialised e then items := read_segment ~salvage:true ctx t e);
        ];
      charge ctx t (Costs.bucket_search_per_item *. float_of_int (List.length !items));
      let item =
        { Codec.key; vlen = Bytes.length value; voff = !voff; vdev = Circular_log.dev_id vlog_target }
      in
      let mine, others = List.partition (fun it -> String.equal it.Codec.key key) !items in
      koff := write_segment ctx t ~seg ~items:(item :: others) ~target:klog_target;
      (* A new key, or one whose item was a tombstone, adds a live object. *)
      if List.for_all Codec.is_tombstone mine then t.objects <- t.objects + 1);
  (* Group commit: only acknowledge once the log prefixes holding this
     write are durable. An entry above a torn hole left by a concurrent
     writer that dies mid-append would be acknowledged yet unreachable to
     the recovery scan. Waited for outside the segment lock: the earlier
     appends complete on the device regardless of lock holders. *)
  Circular_log.wait_durable vlog_target ~loff:!voff;
  Circular_log.wait_durable klog_target ~loff:!koff;
  finish ctx t Put t0

(* --- DEL (§3.3): like PUT but only the key log; vlen=0 marks deletion --- *)

let del t key =
  Codec.check_key ~fn:"Store.del" key;
  let t0 = Sim.now () in
  let ctx = { ssd = 0.; cpu = 0.; accesses = 0 } in
  charge ctx t (Costs.command_setup +. Costs.hash_lookup);
  let seg = Codec.segment_of_key ~nsegments:t.config.nsegments key in
  wait_for_space t t.klog (Codec.segment_bytes ~chain_len:8 + t.config.compaction_window);
  let koff = ref (-1) in
  Segtbl.with_lock t.segtbl seg (fun () ->
      let e = Segtbl.entry t.segtbl seg in
      if Segtbl.is_materialised e then begin
        let items = read_segment ~salvage:true ctx t e in
        charge ctx t (Costs.bucket_search_per_item *. float_of_int (List.length items));
        match List.find_opt (fun it -> String.equal it.Codec.key key) items with
        | None -> ()
        | Some it ->
            let was_live = not (Codec.is_tombstone it) in
            let items' =
              List.map
                (fun it ->
                  if String.equal it.Codec.key key then { it with Codec.vlen = 0; voff = 0; vdev = -1 }
                  else it)
                items
            in
            koff := write_segment ctx t ~seg ~items:items' ~target:t.klog;
            if was_live then t.objects <- t.objects - 1
      end);
  (* Group commit, as in [put]: the tombstone only counts once its log
     prefix is durable. *)
  if !koff >= 0 then Circular_log.wait_durable t.klog ~loff:!koff;
  finish ctx t Del t0

(* ------------------------------------------------------------------ *)
(* Compaction (§3.3.1).

   Both compactors read each window once and relocate live entries from
   that buffer. §3.3.1 also prefetches window N+1 while round N runs; that
   is not modelled. A wake-up stops as soon as its log is back under the
   target, so window N+1 would mostly be read for a round of a later
   wake-up, and its bytes would have to be held that long next to the
   round's own buffer. *)

(* One round of either compactor. One bulk read of the window at [log]'s
   head, walked frame by frame in memory (Codec.walk_window; frames that
   straddle the window edge wait for the next round). [units frames]
   groups the frames into the units the S sub-compactions take
   round-robin and run in parallel (§3.3.1). [process ~head buf ~blocked
   u] relocates one unit from the window [buf] read at [head], and sets
   [blocked] if the tail ran out of room: the head then stays put, so
   nothing left in place is passed over. Otherwise the head advances to
   where the walk reached. Returns the number of bytes reclaimed. *)
let compaction_round t log kind ~on_rot ~units ~process =
  let head = Circular_log.head log in
  let stop = min (Circular_log.committed_tail log) (head + t.config.compaction_window) in
  let buf, frames, window_end =
    if stop <= head then (Bytes.empty, [], head)
    else begin
      let buf = Circular_log.read log ~loff:head ~len:(stop - head) in
      let frames, reached = Codec.walk_window kind ~base:head buf ~on_rot in
      (buf, frames, reached)
    end
  in
  let s = t.config.subcompactions in
  let groups = Array.make s [] in
  List.iteri (fun i u -> groups.(i mod s) <- u :: groups.(i mod s)) (units frames);
  let blocked = ref false in
  Sim.fork_join
    (Array.to_list
       (Array.map (fun group () -> List.iter (process ~head buf ~blocked) (List.rev group)) groups));
  let reclaimed = if !blocked then 0 else window_end - Circular_log.head log in
  if reclaimed > 0 then Circular_log.advance_head log reclaimed;
  t.compactions <- t.compactions + 1;
  reclaimed

(* Whether a segment's current home copy starts in [lo, hi) of the key
   log. *)
let holds_live_segment t ~lo ~hi =
  List.init (Segtbl.nsegments t.segtbl) (Segtbl.entry t.segtbl)
  |> List.exists (fun e ->
         Segtbl.is_materialised e && Segtbl.dev e = t.home_dev && lo <= Segtbl.off e && Segtbl.off e < hi)

(* One key-log compaction round: relocate every live segment in the window
   to the tail, drop stale copies, purge tombstones. *)
let compact_key_log t =
  compaction_round t t.klog Codec.Key_log
    (* A rotted frame is counted. Nothing rewrites bytes at the head, so
       the walk steps past the rot when no segment still lives there; a
       live one stops the window until its next write or COPY moves it
       out. *)
    ~on_rot:(fun ~at ~resume ->
      t.corrupt_reads <- t.corrupt_reads + 1;
      match resume with Some next -> not (holds_live_segment t ~lo:at ~hi:next) | None -> false)
    ~units:Fun.id
    ~process:(fun ~head buf ~blocked { Codec.loff; len; seg } ->
      let e = Segtbl.entry t.segtbl seg in
      if
        Segtbl.dev e = t.home_dev && Segtbl.off e = loff
        && Codec.segment_bytes ~chain_len:(Segtbl.chain_len e) = len
      then
        (* Live segment: relocate. Skip (leave for the next round) if
           locked by a PUT/DEL/value compaction — the paper's rule; here
           we wait since the head must move past it. *)
        Segtbl.with_lock t.segtbl seg (fun () ->
            (* Fetched again: a writer may have moved the segment while
               this process waited for the lock. If it still lives here,
               its bytes are the window's: no further device read. *)
            let e = Segtbl.entry t.segtbl seg in
            if Segtbl.dev e = t.home_dev && Segtbl.off e = loff then begin
              let sub = { ssd = 0.; cpu = 0.; accesses = 0 } in
              let items = decode_items ~salvage:true sub t ~loff buf ~off:(loff - head) ~len in
              let live = List.filter (fun it -> not (Codec.is_tombstone it)) items in
              if live <> [] then
                try ignore (write_segment sub t ~seg ~items:live ~target:t.klog)
                with Circular_log.Log_full _ -> blocked := true
              else Segtbl.update t.segtbl ~seg ~dev:t.home_dev ~off:(-1) ~chain_len:0
            end)
      (* else: stale copy, nothing to do. *))

(* The value log's frames as (segment, entry offsets) groups, in segment
   order. *)
let by_segment frames =
  List.stable_sort (fun (a : Codec.frame) b -> compare a.seg b.seg) frames
  |> List.fold_left
       (fun acc { Codec.loff; seg; _ } ->
         match acc with
         | (s, offs) :: rest when s = seg -> (s, loff :: offs) :: rest
         | _ -> (seg, [ loff ]) :: acc)
       []
  |> List.rev

(* One value-log compaction round (§3.3.1, Figure 3-c): lock each segment
   owning entries in the window once, relocate the values its bucket
   still references, rewrite the bucket. *)
let compact_value_log t =
  compaction_round t t.vlog Codec.Value_log
    (* A rotted entry is counted and stops the window before it. *)
    ~on_rot:(fun ~at:_ ~resume:_ ->
      t.corrupt_reads <- t.corrupt_reads + 1;
      false)
    ~units:by_segment
    ~process:(fun ~head buf ~blocked (seg, entries) ->
      Segtbl.with_lock t.segtbl seg (fun () ->
          let e = Segtbl.entry t.segtbl seg in
          if Segtbl.is_materialised e then begin
            let sub = { ssd = 0.; cpu = 0.; accesses = 0 } in
            let items = read_segment ~salvage:true sub t e in
            let changed = ref false in
            let items' =
              List.map
                (fun it ->
                  if
                    it.Codec.vdev = Circular_log.dev_id t.vlog
                    && List.mem it.Codec.voff entries
                    && not (Codec.is_tombstone it)
                  then begin
                    (* Live value inside the window: relocate to the tail,
                       sourcing the bytes from the already-read window. *)
                    let bytes = Bytes.sub buf (it.Codec.voff - head) (value_entry_len it) in
                    match timed_ssd sub (fun () -> Circular_log.append t.vlog bytes) with
                    | voff ->
                        changed := true;
                        { it with Codec.voff }
                    | exception Circular_log.Log_full _ ->
                        blocked := true;
                        it
                  end
                  else it)
                items
            in
            if !changed then
              try ignore (write_segment sub t ~seg ~items:items' ~target:t.klog)
              with Circular_log.Log_full _ -> blocked := true
          end))

(* Merge swapped-out segments back to the home SSD (§3.6): runs when the
   home device has spare bandwidth; rewrites segment and values home and
   releases the swap-region space logically (the swap log reclaims it on
   its own compaction). *)
let merge_swapped_back t =
  let swapped = Segtbl.swapped_out t.segtbl in
  List.iter
    (fun seg ->
      Segtbl.with_lock t.segtbl seg (fun () ->
          let e = Segtbl.entry t.segtbl seg in
          if Segtbl.dev e <> t.home_dev && Segtbl.is_materialised e then begin
            let ctx = { ssd = 0.; cpu = 0.; accesses = 0 } in
            let items = read_segment ~salvage:true ctx t e in
            (* write_segment pulls the foreign values home as it goes. *)
            ignore (write_segment ctx t ~seg ~items ~target:t.klog);
            t.merged_back <- t.merged_back + 1
          end))
    swapped

(* Compaction driver: a background process that keeps both logs under the
   configured occupancy. *)
let run_compactor ?(period = 0.005) t =
  Sim.every ~period (fun () ->
      (* Interleave key-log and value-log rounds so a churning key log
         cannot starve value-log reclamation; bound the rounds per wake-up
         so a log genuinely full of live data does not spin. *)
      let max_rounds =
        4
        + ((Circular_log.size t.klog + Circular_log.size t.vlog)
          / max 1 t.config.compaction_window)
      in
      let klog_needs () =
        Circular_log.occupancy t.klog > t.config.compact_target
        && not (Circular_log.is_empty t.klog)
      in
      let vlog_needs () =
        Circular_log.occupancy t.vlog > t.config.compact_target
        && not (Circular_log.is_empty t.vlog)
      in
      (* Trigger on occupancy, or when the write-path headroom is about to
         engage backpressure (small logs can hit the free-space floor below
         the occupancy trigger). *)
      let low_free log = Circular_log.free log < 3 * t.config.compaction_window in
      if
        Circular_log.occupancy t.klog > t.config.compact_trigger
        || Circular_log.occupancy t.vlog > t.config.compact_trigger
        || low_free t.klog || low_free t.vlog
      then begin
        let rounds = ref 0 in
        while (klog_needs () || vlog_needs ()) && !rounds < max_rounds do
          incr rounds;
          if klog_needs () then ignore (compact_key_log t);
          if vlog_needs () then ignore (compact_value_log t)
        done
      end;
      if Segtbl.swapped_out t.segtbl <> [] then merge_swapped_back t;
      true)

(* --- recovery (§3.8): rebuild the DRAM segment table by scanning the key
   log; the newest copy of each segment wins because the scan runs in
   append order. --- *)

let recover t =
  (* Writers that died in the crash left torn holes in the logs; truncate
     both at the first hole (group commit in [put] guarantees nothing
     acknowledged lies beyond it). *)
  Circular_log.truncate_torn t.klog;
  Circular_log.truncate_torn t.vlog;
  (* The DRAM segment table died with the node: forget it entirely rather
     than trust entries that may point past the truncation. The scan below
     rebuilds every segment that survives on flash. *)
  for seg = 0 to Segtbl.nsegments t.segtbl - 1 do
    let e = Segtbl.entry t.segtbl seg in
    Segtbl.update t.segtbl ~seg ~dev:(Segtbl.dev e) ~off:(Segtbl.off e) ~chain_len:0
  done;
  let loff = ref (Circular_log.head t.klog) in
  let stop = Circular_log.committed_tail t.klog in
  let ctx = { ssd = 0.; cpu = 0.; accesses = 0 } in
  let objects = ref 0 in
  let seen = Hashtbl.create 1024 in
  (* The scan walks frame headers in append order; a CRC-bad header means
     the rot ate the only record of the frame's length, so the scan stops
     there — exactly like the torn-tail rule, everything beyond it is
     unreachable and the truncated entries re-enter via COPY repair. *)
  (try
     while !loff < stop do
       let hdr =
         timed_ssd ctx (fun () ->
             Circular_log.read t.klog ~loff:!loff ~len:(Codec.header_bytes Codec.Key_log))
       in
       let seg, chain_len = Codec.segment_header ~off:0 hdr in
       Segtbl.update t.segtbl ~seg ~dev:t.home_dev ~off:!loff ~chain_len;
       Hashtbl.replace seen seg !loff;
       loff := !loff + Codec.segment_bytes ~chain_len
     done
   with Codec.Corrupt _ | Invalid_argument _ -> t.corrupt_reads <- t.corrupt_reads + 1);
  (* Count live objects from the final segment copies, in sorted segment
     order: each read charges simulated device time, so the scan order
     must not depend on hash-bucket layout. *)
  (* simlint: allow hashtbl-order — bindings are sorted before use *)
  let segs = Hashtbl.fold (fun seg _ acc -> seg :: acc) seen [] |> List.sort compare in
  List.iter
    (fun seg ->
      let e = Segtbl.entry t.segtbl seg in
      if Segtbl.is_materialised e then begin
        let items = read_segment ~salvage:true ctx t e in
        List.iter (fun it -> if not (Codec.is_tombstone it) then incr objects) items
      end)
    segs;
  t.objects <- !objects

let fold_parallel = 8 (* segments [fold_live] visits at once *)

(* Iterate every live (key, value) pair, locking each segment while it is
   visited — the substrate of the COPY primitive (§3.8): COPY is mutually
   exclusive with PUT/DEL on the same segment, so copied pairs are
   immutable during their transfer. *)
let fold_live t ~init ~f =
  let acc = ref init in
  let nsegs = Segtbl.nsegments t.segtbl in
  (* COPY is a bulk operation: scan [fold_parallel] segments at a time, each
     visit reading its values with the device's internal parallelism, then
     hand the pairs out in order. *)
  let visit seg collected () =
    Segtbl.with_lock t.segtbl seg (fun () ->
        let e = Segtbl.entry t.segtbl seg in
        if Segtbl.is_materialised e then begin
          let ctx = { ssd = 0.; cpu = 0.; accesses = 0 } in
          let items = read_segment ~salvage:true ctx t e in
          let live = List.filter (fun it -> not (Codec.is_tombstone it)) items in
          let fetched = List.map (fun it -> (it, ref Bytes.empty)) live in
          Sim.fork_join
            (List.map (fun (it, slot) () -> slot := read_value_entry ctx t it) fetched);
          (* Never stream a rotted value to a COPY destination: a corrupt
             entry is skipped (counted) and left for scrub/read-repair. *)
          collected :=
            List.filter_map
              (fun ((it : Codec.item), slot) ->
                match Codec.decode_value_entry ~off:0 ~len:(Bytes.length !slot) !slot with
                | ve -> Some (it.Codec.key, ve.Codec.ve_value)
                | exception Codec.Corrupt _ ->
                    t.corrupt_reads <- t.corrupt_reads + 1;
                    None)
              fetched
        end)
  in
  let seg = ref 0 in
  while !seg < nsegs do
    let batch = min fold_parallel (nsegs - !seg) in
    let slots = Array.init batch (fun _ -> ref []) in
    Sim.fork_join (List.init batch (fun i -> visit (!seg + i) slots.(i)));
    Array.iter (fun slot -> List.iter (fun (k, v) -> acc := f !acc k v) !slot) slots;
    seg := !seg + batch
  done;
  !acc

(* --- scrubbing: verify one segment and its values end-to-end --- *)

type scrub_result =
  | Scrub_clean of int          (* items whose checksums all verified *)
  | Scrub_repair of string list (* keys whose value entries are rotted *)
  | Scrub_bad_segment           (* the segment frame itself is rotted *)

(* Walk one segment under its lock: strict-decode the frame, then verify
   every live value entry's CRC. Rotted values are repairable key by key
   (read-repair from a CRRS replica); a rotted frame is not — its item
   list is gone, so only an arc re-COPY can rebuild it. Device time is
   charged normally, which is what lets the engine price scrub reads in
   tokens. *)
let scrub_segment t seg =
  if seg < 0 || seg >= Segtbl.nsegments t.segtbl then invalid_arg "Store.scrub_segment";
  let ctx = { ssd = 0.; cpu = 0.; accesses = 0 } in
  Segtbl.with_lock t.segtbl seg (fun () ->
      let e = Segtbl.entry t.segtbl seg in
      if not (Segtbl.is_materialised e) then Scrub_clean 0
      else
        match read_segment ctx t e with
        | exception (Codec.Corrupt _ | Invalid_argument _) ->
            t.corrupt_reads <- t.corrupt_reads + 1;
            Scrub_bad_segment
        | items ->
            let live = List.filter (fun it -> not (Codec.is_tombstone it)) items in
            charge ctx t (Costs.decode_per_item *. float_of_int (List.length live));
            let bad =
              List.filter_map
                (fun (it : Codec.item) ->
                  match read_value_entry ctx t it with
                  | exception Invalid_argument _ ->
                      t.corrupt_reads <- t.corrupt_reads + 1;
                      Some it.Codec.key
                  | buf -> (
                      match Codec.decode_value_entry ~off:0 ~len:(Bytes.length buf) buf with
                      | ve when String.equal ve.Codec.ve_key it.Codec.key -> None
                      | _ ->
                          t.corrupt_reads <- t.corrupt_reads + 1;
                          Some it.Codec.key
                      | exception Codec.Corrupt _ ->
                          t.corrupt_reads <- t.corrupt_reads + 1;
                          Some it.Codec.key))
                live
            in
            if bad = [] then Scrub_clean (List.length live) else Scrub_repair bad)

let nsegments t = Segtbl.nsegments t.segtbl

type counters = {
  gets : int;
  puts : int;
  dels : int;
  compaction_runs : int;
  swapped : int;
  merged : int;
  corrupt : int;
  salvaged : int;
}

let counters t =
  {
    gets = t.get_stats.count;
    puts = t.put_stats.count;
    dels = t.del_stats.count;
    compaction_runs = t.compactions;
    swapped = t.swapped_puts;
    merged = t.merged_back;
    corrupt = t.corrupt_reads;
    salvaged = t.salvaged_segments;
  }
