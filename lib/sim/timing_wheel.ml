(* Hierarchical timing wheel scheduler with an overflow heap.

   Geometry: a sorted intrusive "front" list holding every event at or
   before the current front edge, three wheel levels of [w = 32768]
   slots each (spans of w, w^2 and w^3 ticks), and an overflow heap for
   events beyond the w^3-tick horizon. With the 2^-23 s (~0.12 us) tick
   the levels cover ~3.9 ms / ~128 s / ~48 days, so virtually all
   timers a cluster simulation arms land inside the wheel; only far
   stragglers wait in the overflow heap until the edge approaches.

   Adds are O(1): bucket the event by its distance from the front edge.
   Pops serve the front list; when it drains, [advance] walks the edge
   forward, migrating level-0 slots into the front list and cascading
   level-1/2 slots down exactly when the edge enters their region.
   The wide levels mean an event is re-bucketed at most twice before
   dispatch — and the common short timers of a steady-state storm
   (sub-level-0-span re-arms) go straight to level 0 and are touched
   cold exactly once. Every re-bucketing walk costs one cache miss per
   event — the dominant cost at cluster scale, which is why fewer,
   wider levels beat a taller tower here. The tick is deliberately
   fine: per-tick occupancy bounds the sorted front-list insert walk,
   which is quadratic in events-per-tick, so at tens of millions of
   pending events a coarse tick turns the front list into the
   bottleneck long before slot-array footprint matters.

   Events are Event_store handles. Their ordering fields and [next]
   link live in the store's int slab, four words per handle, so a cold
   event walked by a migration or cascade costs one cache line and
   every link update is a plain int store (no write barrier); the
   bucket heads and the front list are ints too. Event_store's
   accessors are [@inline], so every one of them compiles to a few
   loads and stores here.

   The front is a list, not a heap: a sorted insert into a handful of
   just-migrated, cache-warm events is cheaper than heap sifts, pop is
   a head unlink, and a tail pointer gives O(1) appends — the path
   taken by same-instant FIFO bursts (spawn / suspend wake-ups at
   [now]), whose seq-ordered keys always sort last.

   Determinism: dispatch order must be bit-identical to the binary
   heap's. The tick is a power of two, so [time / tick] is exact and
   every event has a well-defined integer tick index [a]; the front
   edge is an integer tick index, never an accumulated float. The
   invariants that make the order exact:

   - front holds exactly the events with [a <= edge]; any such event is
     strictly earlier in time than any wheel/overflow event (equal
     times share [a], hence always share a bucket);
   - the edge never passes an unmigrated event: scans advance slot by
     slot through occupied territory and only jump across slots proven
     empty, cascading each level-1/2 slot when the edge enters it;
   - each slot holds a single tick-index value at a time (level ranges
     are narrower than a wrap), so migrating a whole slot is exact;
   - within the front list, Event_store.before gives the (time, key,
     seq) total order. *)

let lw = 15
let w = 1 lsl lw
let wmask = w - 1
let w2 = w * w
let w3 = w * w * w

type t = {
  store : Event_store.t;
  mutable edge : int; (* front edge as an absolute tick index *)
  mutable front : int; (* sorted intrusive list; events with a <= edge *)
  mutable front_tail : int; (* last handle; stale when front is nil *)
  slots0 : int array; (* intrusive lists; a - edge in [1, w) *)
  slots1 : int array; (* a - edge in [w, w2) *)
  slots2 : int array; (* a - edge in [w2, w3) *)
  mutable c0 : int;
  mutable c1 : int;
  mutable c2 : int;
  overflow : Event_heap.t; (* a - edge >= w3 *)
  mutable count : int;
}

let nil = Event_store.nil

let create store =
  {
    store;
    edge = 0;
    front = nil;
    front_tail = nil;
    slots0 = Array.make w nil;
    slots1 = Array.make w nil;
    slots2 = Array.make w nil;
    c0 = 0;
    c1 = 0;
    c2 = 0;
    overflow = Event_heap.create store;
    count = 0;
  }

let length t = t.count

(* Tick index of a queued event: floor (time / tick) for the level-0
   slot width tick = 2^-23 s (~0.12 us), exact because the tick is a
   power of two. *)
let[@inline] tick_of st h = Event_store.bucket st h 0x1p23

(* Insertion point for [h] in a sorted intrusive list after [prev].
   Top level with explicit arguments, not an inner closure: this is on
   the hot path and must not allocate. *)
let rec find_pos st prev h =
  let n = Event_store.next st prev in
  if n <> nil && Event_store.before st n h then find_pos st n h else prev

(* Sorted insert into the front list. Head and tail fast paths are
   O(1); the interior walk only runs for events landing strictly inside
   the list, which for a just-migrated slot is a handful of warm ones. *)
let front_add t h =
  let st = t.store in
  if t.front = nil then begin
    Event_store.set_next st h nil;
    t.front <- h;
    t.front_tail <- h
  end
  else if Event_store.before st h t.front then begin
    Event_store.set_next st h t.front;
    t.front <- h
  end
  else if Event_store.before st t.front_tail h then begin
    Event_store.set_next st h nil;
    Event_store.set_next st t.front_tail h;
    t.front_tail <- h
  end
  else begin
    let prev = find_pos st t.front h in
    Event_store.set_next st h (Event_store.next st prev);
    Event_store.set_next st prev h
  end

(* Bucket an event with tick index [a] by its distance from the current
   edge. Shared by [add], cascades, and the overflow drain; does not
   touch [count]. *)
let place t h a =
  let st = t.store in
  if a <= t.edge then front_add t h
  else begin
    let d = a - t.edge in
    if d < w then begin
      let idx = a land wmask in
      Event_store.set_next st h t.slots0.(idx);
      t.slots0.(idx) <- h;
      t.c0 <- t.c0 + 1
    end
    else if d < w2 then begin
      let idx = (a asr lw) land wmask in
      Event_store.set_next st h t.slots1.(idx);
      t.slots1.(idx) <- h;
      t.c1 <- t.c1 + 1
    end
    else if d < w3 then begin
      let idx = (a asr (2 * lw)) land wmask in
      Event_store.set_next st h t.slots2.(idx);
      t.slots2.(idx) <- h;
      t.c2 <- t.c2 + 1
    end
    else Event_heap.add t.overflow h
  end

let add t h =
  place t h (tick_of t.store h);
  t.count <- t.count + 1

(* Top-level tail-recursive walks with explicit arguments rather than
   [ref] cursors or inner closures throughout the advance path: both
   would allocate once per tick, and the whole point of this structure
   is an allocation-free steady state. *)
let rec migrate0_go t h =
  if h <> nil then begin
    let st = t.store in
    let n = Event_store.next st h in
    (* Touch the event's body and label now, though only dispatch
       reads them: both sit in the store's pointer arrays, away from the
       slab line this walk has loaded, and the event is popped within a
       tick. Issued here, their cache misses overlap the walk's
       dependent link misses instead of costing two serial misses at
       dispatch. *)
    let (_ : Event_store.body) = Sys.opaque_identity (Event_store.body st h) in
    let (_ : string) = Sys.opaque_identity (Event_store.label st h) in
    t.c0 <- t.c0 - 1;
    front_add t h;
    migrate0_go t n
  end

(* Move the level-0 slot for tick index [a] (= the slot the edge just
   reached) into the front list. *)
let migrate0 t a =
  let idx = a land wmask in
  let head = t.slots0.(idx) in
  t.slots0.(idx) <- nil;
  migrate0_go t head

(* Re-place every event of a level-1/2 slot now that the edge has
   entered its region; they land in lower levels (or the front list). *)
let rec cascade1_go t h =
  if h <> nil then begin
    let n = Event_store.next t.store h in
    t.c1 <- t.c1 - 1;
    place t h (tick_of t.store h);
    cascade1_go t n
  end

let cascade1 t b =
  let idx = b land wmask in
  let head = t.slots1.(idx) in
  t.slots1.(idx) <- nil;
  cascade1_go t head

let rec cascade2_go t h =
  if h <> nil then begin
    let n = Event_store.next t.store h in
    t.c2 <- t.c2 - 1;
    place t h (tick_of t.store h);
    cascade2_go t n
  end

let cascade2 t c =
  let idx = c land wmask in
  let head = t.slots2.(idx) in
  t.slots2.(idx) <- nil;
  cascade2_go t head

(* Pull overflow events that have come within the wheel horizon. *)
let rec drain_overflow t =
  let h = Event_heap.peek t.overflow in
  if h <> nil then begin
    let a = tick_of t.store h in
    if a - t.edge < w3 then begin
      ignore (Event_heap.pop t.overflow);
      place t h a;
      drain_overflow t
    end
  end

(* First occupied slot of a level in [a, a_end], or -1. *)
let rec scan0 t a a_end =
  if a > a_end then -1
  else if t.slots0.(a land wmask) <> nil then a
  else scan0 t (a + 1) a_end

let rec scan1 t b b_end =
  if b > b_end then -1
  else if t.slots1.(b land wmask) <> nil then b
  else scan1 t (b + 1) b_end

let rec scan2 t c c_end =
  if c > c_end then -1
  else if t.slots2.(c land wmask) <> nil then c
  else scan2 t (c + 1) c_end

(* Advance the edge until the front list is populated (or no events
   remain). Each iteration either processes a region boundary (with its
   cascades), scans the current region's occupied level for the next
   nonempty slot, or jumps across a region proven empty. *)
let rec advance t =
  drain_overflow t;
  if t.front <> nil || t.count = 0 then ()
  else begin
    (if t.c0 = 0 && t.c1 = 0 && t.c2 = 0 then
       (* Only far-future overflow remains: jump to just before its
          head; the next drain pulls it into the wheel. *)
       t.edge <- max t.edge (tick_of t.store (Event_heap.peek t.overflow) - 1)
     else
       let e = t.edge + 1 in
       if e land (w2 - 1) = 0 then begin
         (* Entering a new level-2 region: cascade its slot, then the
            first level-1 slot of the region, then take the first tick. *)
         t.edge <- e;
         cascade2 t (e asr (2 * lw));
         cascade1 t (e asr lw);
         migrate0 t e
       end
       else if e land (w - 1) = 0 then begin
         t.edge <- e;
         cascade1 t (e asr lw);
         migrate0 t e
       end
       else if t.c0 > 0 then begin
         (* Scan level 0 up to the end of the current level-1 region. *)
         let region_end = (((e asr lw) + 1) * w) - 1 in
         let a = scan0 t e region_end in
         if a >= 0 then begin
           t.edge <- a;
           migrate0 t a
         end
         else t.edge <- region_end (* boundary cascade on the next pass *)
       end
       else if t.c1 > 0 then begin
         (* Level 0 empty: scan level 1 within the current level-2
            region and jump to just before the first occupied slot. *)
         let cur_b = t.edge asr lw in
         let c_end = (((t.edge asr (2 * lw)) + 1) * w) - 1 in
         let b = scan1 t (cur_b + 1) c_end in
         if b >= 0 then t.edge <- (b * w) - 1
         else t.edge <- (((t.edge asr (2 * lw)) + 1) * w2) - 1
       end
       else begin
         (* Only level 2 occupied: jump to just before its first
            occupied slot (level-2 indices span at most one wrap). *)
         let cur_c = t.edge asr (2 * lw) in
         let c = scan2 t (cur_c + 1) (cur_c + w) in
         if c >= 0 then t.edge <- (c * w2) - 1
         else t.edge <- (((cur_c + w) * w2) - 1) (* unreachable if counts are consistent *)
       end);
    advance t
  end

(* Fused peek-and-pop against a stamp limit: nil when empty or when the
   minimum lies beyond [limit]. The popped handle's [next] is left
   stale; whoever takes the handle next overwrites it. *)
let pop_until t limit =
  if t.count = 0 then nil
  else begin
    if t.front = nil then advance t;
    let head = t.front in
    if Event_store.stamp t.store head > limit then nil
    else begin
      t.front <- Event_store.next t.store head;
      t.count <- t.count - 1;
      head
    end
  end

let pop t = pop_until t max_int

let peek_time t =
  if t.count = 0 then infinity
  else begin
    if t.front = nil then advance t;
    Event_store.time t.store t.front
  end
