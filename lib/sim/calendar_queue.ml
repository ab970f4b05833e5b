(* Calendar queue scheduler (R. Brown, CACM '88).

   Events hash by time into a circular array of "day" buckets of fixed
   width; each bucket is a sorted intrusive list (Event_store.before)
   of Event_store handles.
   A pop scans forward from the current day and returns the bucket head
   that belongs to the current "year", giving O(1) amortised add/pop
   when event times are reasonably uniform — the regime cluster-scale
   storms with hundreds of thousands of in-flight timers live in.

   Determinism: the dispatch order must be bit-identical to the binary
   heap's. Two properties guarantee it exactly, with no epsilon:

   - the bucket width is always a power of two, so [time / width] is an
     exact float operation (exponent shift) and the virtual bucket
     number of a time is a well-defined integer;
   - the scan position is that integer ([cur_vb]), never an accumulated
     float edge, so year-membership tests ([vb_of head = cur_vb])
     are exact integer comparisons.

   Equal-time events land in the same bucket (same virtual bucket
   number) where the sorted insert orders them by (key, seq), matching
   the heap's total order. *)

type t = {
  store : Event_store.t;
  mutable buckets : int array; (* sorted intrusive lists; nil = empty *)
  mutable nbuckets : int; (* power of two *)
  mutable mask : int; (* nbuckets - 1 *)
  mutable width : float; (* bucket width in seconds; power of two *)
  mutable inv_width : float; (* 1 / width, exact *)
  mutable cur_vb : int; (* virtual bucket number of the scan position *)
  mutable count : int;
}

let nil = Event_store.nil

(* Virtual bucket number of a queued event: floor (time / width),
   exact for a power-of-two width (see Event_store.bucket). Times so
   far out that they leave int range all share one far bucket, where
   the sorted list keeps them correctly ordered. *)
let vb_of t h = Event_store.bucket t.store h t.inv_width

(* 256 buckets of ~7.6 us to start; both adapt as events accumulate. *)
let create store =
  let width = 0x1p-17 in
  {
    store;
    buckets = Array.make 256 nil;
    nbuckets = 256;
    mask = 255;
    width;
    inv_width = 1. /. width;
    cur_vb = 0;
    count = 0;
  }

let length t = t.count

(* Insertion point for [h] in the sorted list after [prev]. Top level
   with explicit arguments, not an inner closure capturing [h]: this
   runs on every add and must not allocate. *)
let rec find_pos st prev h =
  let n = Event_store.next st prev in
  if n <> nil && Event_store.before st n h then find_pos st n h else prev

(* Sorted insert by Event_store.before into the intrusive list rooted
   at buckets.(idx). *)
let insert_sorted t idx h =
  let st = t.store in
  let head = t.buckets.(idx) in
  if head = nil || Event_store.before st h head then begin
    Event_store.set_next st h head;
    t.buckets.(idx) <- h
  end
  else begin
    let prev = find_pos st head h in
    Event_store.set_next st h (Event_store.next st prev);
    Event_store.set_next st prev h
  end

let place t h =
  let vb = vb_of t h in
  insert_sorted t (vb land t.mask) h;
  (* Never let the scan position sit past a pending event: an add at the
     current instant may hash behind a scan that already skipped its
     (then-empty) bucket. *)
  if vb < t.cur_vb then t.cur_vb <- vb

(* Pick a new power-of-two width from the live event population: balance
   empty-bucket scan cost against sorted-insert chain length, which
   meet at width ~ span / count for roughly uniform times. *)
let ideal_width ~span ~count old =
  if span <= 0. || count = 0 then old
  else begin
    let ideal = span /. float_of_int count in
    let ideal = Float.min 1e6 (Float.max 1e-9 ideal) in
    (* Largest power of two <= 2 * ideal. *)
    let _, e = Float.frexp ideal in
    Float.ldexp 1.0 e
  end

let resize t nbuckets' =
  (* Unlink every event, then re-place under the new geometry. *)
  let st = t.store in
  let all = ref nil and hmin = ref nil and hmax = ref nil in
  Array.iteri
    (fun i head ->
      let h = ref head in
      while !h <> nil do
        let next = Event_store.next st !h in
        let s = Event_store.stamp st !h in
        if !hmin = nil || s < Event_store.stamp st !hmin then hmin := !h;
        if !hmax = nil || s > Event_store.stamp st !hmax then hmax := !h;
        Event_store.set_next st !h !all;
        all := !h;
        h := next
      done;
      t.buckets.(i) <- nil)
    t.buckets;
  let span =
    if !hmin = nil then 0. else Event_store.time st !hmax -. Event_store.time st !hmin
  in
  let width = ideal_width ~span ~count:t.count t.width in
  if nbuckets' <> t.nbuckets then begin
    t.buckets <- Array.make nbuckets' nil;
    t.nbuckets <- nbuckets';
    t.mask <- nbuckets' - 1
  end;
  t.width <- width;
  t.inv_width <- 1. /. width;
  t.cur_vb <- (if !hmin = nil then 0 else vb_of t !hmin);
  let h = ref !all in
  while !h <> nil do
    let next = Event_store.next st !h in
    insert_sorted t (vb_of t !h land t.mask) !h;
    h := next
  done

let add t h =
  place t h;
  t.count <- t.count + 1;
  if t.count > 2 * t.nbuckets then resize t (2 * t.nbuckets)

(* Fallback when a full circle of days is empty in the current year:
   jump the calendar straight to the globally minimal event. Bucket
   heads are each bucket's minimum (lists are sorted with time as the
   major component), so the global minimum is the minimal head. *)
let direct_search t =
  let best = ref nil in
  Array.iter
    (fun head ->
      if head <> nil && (!best = nil || Event_store.before t.store head !best) then best := head)
    t.buckets;
  t.cur_vb <- vb_of t !best;
  !best

(* Advance the scan position to the next event and return it (without
   unlinking). Tail-recursive, not a [ref] loop: this runs on every pop
   and every peek. After [nbuckets] empty days the current year is
   proven empty and [direct_search] jumps the calendar. *)
let rec scan t steps =
  let head = t.buckets.(t.cur_vb land t.mask) in
  if head <> nil && vb_of t head = t.cur_vb then head
  else if steps + 1 >= t.nbuckets then direct_search t
  else begin
    t.cur_vb <- t.cur_vb + 1;
    scan t (steps + 1)
  end

(* Fused peek-and-pop against a stamp limit: nil when empty or when the
   minimum lies beyond [limit]. *)
let pop_until t limit =
  if t.count = 0 then nil
  else begin
    let head = scan t 0 in
    if Event_store.stamp t.store head > limit then nil
    else begin
      t.buckets.(t.cur_vb land t.mask) <- Event_store.next t.store head;
      t.count <- t.count - 1;
      if t.nbuckets > 64 && t.count < t.nbuckets / 8 then resize t (t.nbuckets / 2);
      head
    end
  end

let pop t = pop_until t max_int
let peek_time t = if t.count = 0 then infinity else Event_store.time t.store (scan t 0)
