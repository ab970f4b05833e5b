(* In-memory segment table (§3.2.3): the only per-key-range metadata LEED
   keeps in the SmartNIC's constrained DRAM. One entry per segment: K bits
   of chain length, a 4-byte offset into the key log, one lock bit — and,
   for the data-swapping extension of §3.6, the id of the SSD currently
   holding the segment. Everything else lives on flash.

   The lock bit serialises PUT/DEL/value-compaction/COPY on a segment; the
   simulator gives it a FIFO waiter queue so blocking is fair. *)

open Leed_sim

type entry = {
  mutable dev : int;        (* SSD id of the log holding the segment *)
  mutable off : int;        (* logical offset of the segment in that key log *)
  mutable chain_len : int;  (* 0 = segment not yet materialised on flash *)
  mutable locked : bool;
  mutable waiters : (unit -> unit) Queue.t;
}

type t = {
  nsegments : int;
  entries : entry array;
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
  {
    nsegments;
    entries =
      Array.init nsegments (fun _ ->
          { dev = home_dev; off = -1; chain_len = 0; locked = false; waiters = Queue.create () });
    home_dev;
    foreign = 0;
  }

let nsegments t = t.nsegments
let entry t seg = t.entries.(seg)
let is_materialised e = e.chain_len > 0

(* Modeled DRAM footprint (what an 8 GB Stingray would actually spend). *)
let modeled_bytes t = t.nsegments * entry_bytes

let is_foreign t e = e.chain_len > 0 && e.dev <> t.home_dev

let update t ~seg ~dev ~off ~chain_len =
  let e = t.entries.(seg) in
  if is_foreign t e then t.foreign <- t.foreign - 1;
  e.dev <- dev;
  e.off <- off;
  e.chain_len <- chain_len;
  if is_foreign t e then t.foreign <- t.foreign + 1

(* --- segment lock (the "one lock bit" of §3.2.2) --- *)

let lock t seg =
  let e = t.entries.(seg) in
  if not e.locked then e.locked <- true
  else Sim.suspend (fun resume -> Queue.push (fun () -> resume ()) e.waiters)

let unlock t seg =
  let e = t.entries.(seg) in
  if not e.locked then invalid_arg "Segtbl.unlock: not locked";
  if Queue.is_empty e.waiters then e.locked <- false
  else
    (* Hand the lock to the oldest waiter without releasing it. *)
    (Queue.pop e.waiters) ()

let try_lock t seg =
  let e = t.entries.(seg) in
  if e.locked then false
  else begin
    e.locked <- true;
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

(* Live segments currently stored on a foreign SSD (swap regions awaiting
   merge-back, §3.6). Sanitized runs scan even when the count is 0, so
   the scan can cross-check it. *)
let swapped_out t =
  if t.foreign = 0 && not (Invariant.active ()) then []
  else begin
    let acc = ref [] and n = ref 0 in
    for i = t.nsegments - 1 downto 0 do
      if is_foreign t t.entries.(i) then begin
        acc := i :: !acc;
        incr n
      end
    done;
    Invariant.require ~invariant:"segtbl-foreign-count" ~time:(Sim.now ()) (!n = t.foreign)
      ~detail:(fun () ->
        Printf.sprintf "%d segments live on a foreign SSD but the table counts %d" !n t.foreign);
    !acc
  end
