(** Engine-owned event store: the scheduler cells of one {!Sim.run},
    addressed by int handles.

    Each pending event is a {e handle}, a small nonnegative int. Its
    scalars live in an int slab, four adjacent words per handle, so a
    cold event's ordering fields and its link share a cache line and
    every store into them is a plain int write — the OCaml write barrier
    ([caml_modify]) never runs for them. Only the body and the label are
    pointers; they live in two parallel arrays indexed by handle and are
    written once per schedule.

    The store is cut into chunks of {!chunk} handles: handle [h] lives
    in chunk [h lsr chunk_bits] at index [i = h land (chunk - 1)]. Its
    slab words are [slab.(c).(4 * i + f)] for
    - [f = 0] the {e stamp}: the event's time as an order-preserving int
      ({!stamp_of_time});
    - [f = 1] the equal-time tie-break key (see {!Sim.tiebreak});
    - [f = 2] the global scheduling sequence number; [0] while the
      handle is free, which no scheduled event carries;
    - [f = 3] the intrusive [next] link, {!nil} when unlinked. The
      freelist and the schedulers' bucket lists share it: a handle is on
      at most one list at a time.

    The store grows by whole chunks, so handles never move and growth
    copies nothing but the small chunk tables. The per-event accessors
    are marked [[@inline]]: the build compiles without [-opaque]
    (dune-workspace), so [Sim] and the schedulers inline them, and a
    time they decode stays an unboxed float. *)

(** What dispatching an event does. An event that resumes a fiber (a
    {!Sim.delay} wake-up, a {!Sim.suspend} resume, a spawn onto a
    pooled fiber) carries the fiber and the value it resumes with
    instead of a closure over them: one block of three words, and the
    engine can find every fiber its pending events hold, to unwind them
    when the run ends. [Apply] likewise saves the engine's own events a
    closure over a function and its argument. *)
type body =
  | Cancelled  (** a tombstone: released when popped, never dispatched *)
  | Call of (unit -> unit)  (** call the closure *)
  | Apply : ('a -> unit) * 'a -> body  (** apply the function to the value *)
  | Resume : ('a, unit) Effect.Deep.continuation * 'a -> body
      (** continue the fiber with the value *)

type t = {
  mutable slab : int array array;  (** slab chunks, 4 words per handle *)
  mutable body : body array array;  (** event bodies, by chunk *)
  mutable label : string array array;  (** attribution labels, by chunk *)
  mutable free : int;  (** freelist head, linked through [next]; {!nil} when empty *)
  mutable capacity : int;  (** handles held (free or in use) *)
}

val chunk_bits : int
(** [10]: log2 of {!chunk}. *)

val chunk : int
(** Handles per chunk; also a fresh store's capacity. *)

val nil : int
(** [-1]: list ends and "no event". Every valid handle is [>= 0]. *)

val create : unit -> t
(** A store of one chunk of free handles. *)

val capacity : t -> int
(** Number of handles (free or in use) the store currently holds. *)

val alloc : t -> int
(** Take a handle off the freelist, adding a chunk when none is free.
    The handle's fields are stale: the caller sets all of them (see
    {!set}) before scheduling it. *)

val release : t -> int -> unit
(** Return a handle to the freelist with int stores only: its [seq]
    becomes [0], so a stale cancel handle on it no longer matches. The
    body and label stay until the handle is reused. *)

val stamp_of_time : float -> int
(** Order-preserving int image of a nonnegative time: the IEEE-754 bit
    pattern minus [2{^62}], so it fits an OCaml int. For nonnegative
    floats the bit pattern is monotonic in the value, so integer order
    on stamps is float order on times, ulp-exact. Simulation times are
    nonnegative (the clock starts at [+0.] and the sanitizer rejects
    events scheduled into the past); a negative time has no stamp. *)

val time_of_stamp : int -> float
(** Inverse of {!stamp_of_time}: the bit-identical float. *)

val stamp : t -> int -> int
(** The handle's stamp (slab word 0). *)

val time : t -> int -> float
(** The handle's time, decoded from its stamp. *)

val key : t -> int -> int
(** The handle's tie-break key. *)

val seq : t -> int -> int
(** The handle's sequence number; [0] once released. *)

val next : t -> int -> int
(** The handle's intrusive link. *)

val set_next : t -> int -> int -> unit
(** Set the handle's intrusive link. *)

val body : t -> int -> body
(** The handle's event body. *)

val label : t -> int -> string
(** The handle's attribution label. *)

val set :
  t -> int -> stamp:int -> key:int -> seq:int -> label:string -> body:body -> unit
(** Set every field of an allocated handle but its link. The label is
    stored only when it is not physically the one already there, so the
    common re-schedule under the same label runs no write barrier. *)

val cancel : t -> int -> unit
(** Make the handle a tombstone: its body becomes [Cancelled], and it
    keeps its place in the scheduler (its stamp, key and seq are
    untouched) until the engine pops and releases it. *)

val before : t -> int -> int -> bool
(** The scheduler ordering contract: [(time, key, seq)] lexicographic,
    read as [(stamp, key, seq)]. Earlier time first; at equal times the
    smaller tie-break key, then the smaller sequence number. A total
    order on live handles (sequence numbers are unique within a run). *)

val bucket : t -> int -> float -> int
(** [bucket st h scale] is [floor (time h * scale)] for a power-of-two
    [scale] (exact: an exponent shift), the integer bucket index the
    wheel and calendar queue file an event under. Times too far out for
    int range clamp to one far index, [max_int / 2]. *)
