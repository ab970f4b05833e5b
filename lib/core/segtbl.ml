(* In-memory segment table (§3.2.3): the only per-key-range metadata LEED
   keeps in the SmartNIC's constrained DRAM. One entry per segment: K bits
   of chain length, a 4-byte offset into the key log, one lock bit — and,
   for the data-swapping extension of §3.6, the id of the SSD currently
   holding the segment. Everything else lives on flash.

   The table is stored the way the paper describes it: one immediate int
   per segment, so the whole table is a single flat block. Bit 0 is the
   lock bit, bits 1–8 the device id, bits 9–16 the chain length, and the
   remaining bits hold [off + 1] (so the "not yet written" offset -1
   packs as 0). The lock bit serialises PUT/DEL/value-compaction/COPY on
   a segment; the simulator gives a contended segment a FIFO waiter
   queue, created on first contention and dropped once drained, so
   blocking is fair without a queue per segment. *)

open Leed_sim

type entry = int

let lock_bit = 1
let dev_shift = 1
let len_shift = 9
let off_shift = 17
let max_dev = 254
let max_chain_len = 255
let max_off = (1 lsl (Sys.int_size - off_shift)) - 2

let dev e = (e lsr dev_shift) land 0xFF
let chain_len e = (e lsr len_shift) land 0xFF
let off e = (e lsr off_shift) - 1
let is_materialised e = chain_len e > 0

let pack ~dev ~off ~chain_len =
  ((off + 1) lsl off_shift) lor (chain_len lsl len_shift) lor (dev lsl dev_shift)

type t = {
  words : int array; (* per segment: packed entry lor lock bit *)
  waiters : (int, (unit -> unit) Queue.t) Hashtbl.t; (* contended segments only *)
  home_dev : int;
  (* materialised entries whose [dev] is not [home_dev]: kept by [update],
     the only writer of an entry's location, so [swapped_out] can answer
     "none" — the common case — without scanning the table *)
  mutable foreign : int;
}

(* Modeled DRAM bytes per entry: 4 B offset + K bits chain + lock bit +
   SSD id — 6 B, matching the paper's budget arithmetic. *)
let entry_bytes = 6

let create ~nsegments ~home_dev () =
  if nsegments <= 0 then invalid_arg "Segtbl.create: nsegments must be positive";
  if home_dev < 0 || home_dev > max_dev then invalid_arg "Segtbl.create: home_dev out of range";
  {
    words = Array.make nsegments (pack ~dev:home_dev ~off:(-1) ~chain_len:0);
    waiters = Hashtbl.create 8;
    home_dev;
    foreign = 0;
  }

let nsegments t = Array.length t.words
let entry t seg = t.words.(seg) land lnot lock_bit

(* Modeled DRAM footprint (what an 8 GB Stingray would actually spend). *)
let modeled_bytes t = nsegments t * entry_bytes

let is_foreign t e = is_materialised e && dev e <> t.home_dev

let update t ~seg ~dev ~off ~chain_len =
  if dev < 0 || dev > max_dev then invalid_arg "Segtbl.update: dev out of range";
  if chain_len < 0 || chain_len > max_chain_len then
    invalid_arg "Segtbl.update: chain_len out of range";
  if off < -1 || off > max_off then invalid_arg "Segtbl.update: off out of range";
  let w = t.words.(seg) in
  if is_foreign t w then t.foreign <- t.foreign - 1;
  let e = pack ~dev ~off ~chain_len in
  t.words.(seg) <- e lor (w land lock_bit);
  if is_foreign t e then t.foreign <- t.foreign + 1

(* --- segment lock (the "one lock bit" of §3.2.2) --- *)

let lock t seg =
  let w = t.words.(seg) in
  if w land lock_bit = 0 then t.words.(seg) <- w lor lock_bit
  else
    let q =
      match Hashtbl.find_opt t.waiters seg with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.add t.waiters seg q;
          q
    in
    Sim.suspend (fun resume -> Queue.push resume q)

let unlock t seg =
  let w = t.words.(seg) in
  if w land lock_bit = 0 then invalid_arg "Segtbl.unlock: not locked";
  match if Hashtbl.length t.waiters = 0 then None else Hashtbl.find_opt t.waiters seg with
  | None -> t.words.(seg) <- w land lnot lock_bit
  | Some q ->
      (* Hand the lock to the oldest waiter without releasing it; a queue
         left empty is dropped, so the table holds only non-empty ones. *)
      let wake = Queue.pop q in
      if Queue.is_empty q then Hashtbl.remove t.waiters seg;
      wake ()

let try_lock t seg =
  let w = t.words.(seg) in
  if w land lock_bit <> 0 then false
  else begin
    t.words.(seg) <- w lor lock_bit;
    true
  end

let with_lock t seg f =
  lock t seg;
  match f () with
  | v ->
      unlock t seg;
      v
  | exception e ->
      unlock t seg;
      raise e

let waiter_queues t = Hashtbl.length t.waiters

(* Live segments currently stored on a foreign SSD (swap regions awaiting
   merge-back, §3.6). Sanitized runs scan even when the count is 0, so
   the scan can cross-check it. *)
let swapped_out t =
  if t.foreign = 0 && not (Invariant.active ()) then []
  else begin
    let acc = ref [] and n = ref 0 in
    for i = nsegments t - 1 downto 0 do
      if is_foreign t t.words.(i) then begin
        acc := i :: !acc;
        incr n
      end
    done;
    Invariant.require ~invariant:"segtbl-foreign-count" ~time:(Sim.now ()) (!n = t.foreign)
      ~detail:(fun () ->
        Printf.sprintf "%d segments live on a foreign SSD but the table counts %d" !n t.foreign);
    !acc
  end
