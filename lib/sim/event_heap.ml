(* Binary min-heap of event handles — the reference scheduler.

   Ordering is Event_store.before: (time, key, seq). Under the default
   FIFO tie-break policy every key is 0, so equal-time events fire in
   insertion order; the race detector assigns seeded pseudo-random keys
   instead, exploring a different — but still fully deterministic —
   legal ordering of simultaneous events (see Sim.tiebreak).

   The heap deliberately goes through Event_store's own accessors and
   none of the inlined copies the wheel uses: it is the plain baseline
   the other structures are checked and measured against. *)

type t = { store : Event_store.t; mutable arr : int array; mutable len : int }

let create store = { store; arr = Array.make 64 Event_store.nil; len = 0 }
let length h = h.len

let grow h =
  let arr = Array.make (2 * Array.length h.arr) Event_store.nil in
  Array.blit h.arr 0 arr 0 h.len;
  h.arr <- arr

(* The sift loops are top-level functions with explicit arguments, not
   inner closures: a closure capturing [h] would allocate on every
   add/pop. *)
let rec sift_up h ev i =
  if i = 0 then h.arr.(0) <- ev
  else
    let p = (i - 1) / 2 in
    if Event_store.before h.store ev h.arr.(p) then begin
      h.arr.(i) <- h.arr.(p);
      sift_up h ev p
    end
    else h.arr.(i) <- ev

let add h ev =
  if h.len = Array.length h.arr then grow h;
  let i = h.len in
  h.len <- h.len + 1;
  sift_up h ev i

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < h.len && Event_store.before h.store h.arr.(l) h.arr.(i) then l else i in
  let m = if r < h.len && Event_store.before h.store h.arr.(r) h.arr.(m) then r else m in
  if m <> i then begin
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(m);
    h.arr.(m) <- tmp;
    sift_down h m
  end

let pop h =
  if h.len = 0 then Event_store.nil
  else begin
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.arr.(0) <- h.arr.(h.len);
      sift_down h 0
    end;
    top
  end

let peek h = if h.len = 0 then Event_store.nil else h.arr.(0)
let peek_time h = if h.len = 0 then infinity else Event_store.time h.store h.arr.(0)

let pop_until h limit =
  if h.len = 0 || Event_store.stamp h.store h.arr.(0) > limit then Event_store.nil else pop h
