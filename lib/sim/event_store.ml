(* Engine-owned event store: an int slab of 4 words per handle (stamp,
   tie-break key, seq, next) plus two pointer arrays (body, label), all
   cut into chunks of [chunk] handles.

   The slab is why this module exists. Scheduler cells used to be
   long-lived mutable records recycled through a freelist, so they sat
   in the major heap and every link, closure, label and boxed-time store
   into them went through [caml_modify]. An [int array] store is a plain
   write, and a float time stored as its stamp needs no box. *)

type body =
  | Cancelled
  | Call of (unit -> unit)
  | Apply : ('a -> unit) * 'a -> body
  | Resume : ('a, unit) Effect.Deep.continuation * 'a -> body

type t = {
  mutable slab : int array array;
  mutable body : body array array;
  mutable label : string array array;
  mutable free : int;
  mutable capacity : int;
}

let chunk_bits = 10
let chunk = 1 lsl chunk_bits
let nil = -1
let capacity st = st.capacity

(* Slab word [f] of handle [h]. *)
let[@inline] word st h f = st.slab.(h lsr chunk_bits).(((h land (chunk - 1)) lsl 2) + f)
let[@inline] set_word st h f v = st.slab.(h lsr chunk_bits).(((h land (chunk - 1)) lsl 2) + f) <- v

(* Add one chunk and thread its handles onto the freelist in ascending
   order, so a burst of schedules takes adjacent slab lines. Handles
   never move, so growth copies nothing but the small chunk tables. *)
let grow st =
  let c = st.capacity lsr chunk_bits in
  if c = Array.length st.slab then begin
    let widen a = Array.append a (Array.make (max 1 c) [||]) in
    st.slab <- widen st.slab;
    st.body <- widen st.body;
    st.label <- widen st.label
  end;
  st.slab.(c) <- Array.make (4 * chunk) 0;
  st.body.(c) <- Array.make chunk Cancelled;
  st.label.(c) <- Array.make chunk "";
  let lo = st.capacity in
  st.capacity <- lo + chunk;
  for h = lo to lo + chunk - 2 do
    set_word st h 3 (h + 1)
  done;
  set_word st (lo + chunk - 1) 3 st.free;
  st.free <- lo

let create () =
  let st = { slab = [||]; body = [||]; label = [||]; free = nil; capacity = 0 } in
  grow st;
  st

let[@inline] alloc st =
  if st.free = nil then grow st;
  let h = st.free in
  st.free <- word st h 3;
  h

let[@inline] release st h =
  set_word st h 2 0;
  set_word st h 3 st.free;
  st.free <- h

(* Subtracting 2^62 maps the bit patterns of [+0., +inf] (all below
   2^63) onto [-2^62, 2^62), the OCaml int range, keeping their order. *)
let[@inline] stamp_of_time t = Int64.to_int (Int64.sub (Int64.bits_of_float t) 0x4000_0000_0000_0000L)
let[@inline] time_of_stamp s = Int64.float_of_bits (Int64.add (Int64.of_int s) 0x4000_0000_0000_0000L)

let[@inline] stamp st h = word st h 0
let[@inline] time st h = time_of_stamp (stamp st h)
let[@inline] key st h = word st h 1
let[@inline] seq st h = word st h 2
let[@inline] next st h = word st h 3
let[@inline] set_next st h n = set_word st h 3 n
let[@inline] body st h = st.body.(h lsr chunk_bits).(h land (chunk - 1))
let[@inline] label st h = st.label.(h lsr chunk_bits).(h land (chunk - 1))

let[@inline] set st h ~stamp ~key ~seq ~label ~body =
  set_word st h 0 stamp;
  set_word st h 1 key;
  set_word st h 2 seq;
  st.body.(h lsr chunk_bits).(h land (chunk - 1)) <- body;
  (* A recycled handle usually carried the same label: skip the barrier. *)
  let labels = st.label.(h lsr chunk_bits) in
  if labels.(h land (chunk - 1)) != label then labels.(h land (chunk - 1)) <- label

let cancel st h = st.body.(h lsr chunk_bits).(h land (chunk - 1)) <- Cancelled

let[@inline] before st a b =
  let sa = st.slab.(a lsr chunk_bits) and i = (a land (chunk - 1)) lsl 2 in
  let sb = st.slab.(b lsr chunk_bits) and j = (b land (chunk - 1)) lsl 2 in
  sa.(i) < sb.(j)
  || sa.(i) = sb.(j)
     && (sa.(i + 1) < sb.(j + 1) || (sa.(i + 1) = sb.(j + 1) && sa.(i + 2) < sb.(j + 2)))

let[@inline] bucket st h scale =
  let q = time st h *. scale in
  if q >= 4.0e18 then max_int / 2 else int_of_float q
