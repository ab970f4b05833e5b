(* Pluggable event scheduler for the DES engine.

   The SCHEDULER contract (module type [S]) is the ordering law every
   implementation must obey exactly: events come back in [(time, key,
   seq)] lexicographic order (Event_store.before). The engine treats
   the scheduler as a black box, so any implementation that honours the
   contract produces bit-identical dispatch sequences — which is what
   keeps the race detector's digests and same-seed chaos runs stable
   across scheduler choices (test/test_sched.ml enforces it). *)

module type S = sig
  type t

  val create : Event_store.t -> t
  val add : t -> int -> unit
  val pop : t -> int
  val pop_until : t -> int -> int
  val peek_time : t -> float
  val length : t -> int
end

module _ : S = Event_heap
module _ : S = Calendar_queue
module _ : S = Timing_wheel

type kind = Binary_heap | Calendar | Wheel

(* A variant rather than a record of closures: the engine's per-event
   calls are a tag test and a direct call. *)
type t = Heap of Event_heap.t | Cal of Calendar_queue.t | Whl of Timing_wheel.t

let create kind store =
  match kind with
  | Binary_heap -> Heap (Event_heap.create store)
  | Calendar -> Cal (Calendar_queue.create store)
  | Wheel -> Whl (Timing_wheel.create store)

let kind = function Heap _ -> Binary_heap | Cal _ -> Calendar | Whl _ -> Wheel

let add t h =
  match t with
  | Whl w -> Timing_wheel.add w h
  | Heap q -> Event_heap.add q h
  | Cal c -> Calendar_queue.add c h

let pop_until t limit =
  match t with
  | Whl w -> Timing_wheel.pop_until w limit
  | Heap q -> Event_heap.pop_until q limit
  | Cal c -> Calendar_queue.pop_until c limit

let pop t = pop_until t max_int

let peek_time = function
  | Whl w -> Timing_wheel.peek_time w
  | Heap q -> Event_heap.peek_time q
  | Cal c -> Calendar_queue.peek_time c

let length = function
  | Whl w -> Timing_wheel.length w
  | Heap q -> Event_heap.length q
  | Cal c -> Calendar_queue.length c

let name = function Binary_heap -> "heap" | Calendar -> "calendar" | Wheel -> "wheel"
let kinds = [ Binary_heap; Calendar; Wheel ]
