(* Pluggable event scheduler for the DES engine.

   The SCHEDULER contract (module type [S]) is the ordering law every
   implementation must obey exactly: events come back in [(time, key,
   seq)] lexicographic order (Sched_event.before). The engine treats
   the scheduler as a black box, so any implementation that honours the
   contract produces bit-identical dispatch sequences — which is what
   keeps the race detector's digests and same-seed chaos runs stable
   across scheduler choices (test/test_sched.ml enforces it). *)

module Event = Sched_event

module type S = sig
  type t

  val name : string
  val create : unit -> t
  val add : t -> Event.t -> unit

  val pop : t -> Event.t
  (* Minimum per Event.before — (time, key, seq); Event.nil when empty. *)

  val pop_until : t -> float -> Event.t
  (* Pop the minimum if its time is <= the limit; Event.nil when empty
     or when the minimum lies beyond it. Fused peek-then-pop: the
     engine's hot loop makes one call and boxes no float. *)

  val peek_time : t -> float
  (* Time of the minimum without removing; infinity when empty. *)

  val length : t -> int
end

type kind = Binary_heap | Calendar | Wheel

module Heap_impl : S with type t = Event_heap.t = struct
  type t = Event_heap.t

  let name = "heap"
  let create () = Event_heap.create ()
  let add = Event_heap.add
  let pop = Event_heap.pop
  let pop_until = Event_heap.pop_until
  let peek_time = Event_heap.peek_time
  let length = Event_heap.length
end

module Calendar_impl : S with type t = Calendar_queue.t = struct
  type t = Calendar_queue.t

  let name = "calendar"
  let create () = Calendar_queue.create ()
  let add = Calendar_queue.add
  let pop = Calendar_queue.pop
  let pop_until = Calendar_queue.pop_until
  let peek_time = Calendar_queue.peek_time
  let length = Calendar_queue.length
end

module Wheel_impl : S with type t = Timing_wheel.t = struct
  type t = Timing_wheel.t

  let name = "wheel"
  let create () = Timing_wheel.create ()
  let add = Timing_wheel.add
  let pop = Timing_wheel.pop
  let pop_until = Timing_wheel.pop_until
  let peek_time = Timing_wheel.peek_time
  let length = Timing_wheel.length
end

(* The engine's hot loop goes through these closures; one existential
   record per run, zero per-event allocation. *)
type t = {
  kind : kind;
  add : Event.t -> unit;
  pop : unit -> Event.t;
  pop_until : float -> Event.t;
  peek_time : unit -> float;
}

let make (type a) (module M : S with type t = a) kind =
  let st = M.create () in
  {
    kind;
    add = (fun ev -> M.add st ev);
    pop = (fun () -> M.pop st);
    pop_until = (fun limit -> M.pop_until st limit);
    peek_time = (fun () -> M.peek_time st);
  }

let create = function
  | Binary_heap -> make (module Heap_impl) Binary_heap
  | Calendar -> make (module Calendar_impl) Calendar
  | Wheel -> make (module Wheel_impl) Wheel

let kind t = t.kind
let add t ev = t.add ev
let pop t = t.pop ()
let pop_until t limit = t.pop_until limit
let peek_time t = t.peek_time ()

let name = function Binary_heap -> "heap" | Calendar -> "calendar" | Wheel -> "wheel"
let kinds = [ Binary_heap; Calendar; Wheel ]
let names = List.map name kinds

let of_name = function
  | "heap" | "binary-heap" -> Some Binary_heap
  | "calendar" | "calendar-queue" -> Some Calendar
  | "wheel" | "timing-wheel" -> Some Wheel
  | _ -> None
