(** Per-key operation histories and a single-key Wing–Gong
    linearizability checker — the chaos harness's strongest oracle.

    Record every completed client operation with its real-time
    invocation/response interval; after the run, {!check} searches for a
    legal sequential ordering per key. Keys are independent registers
    under both CRRS and ABD, so histories never cross keys. *)

type value = int option
(** The register value a chaos operation reads or writes: the decoded
    sequence number, or [None] for an absent key. *)

(** One operation's effect. *)
type kind =
  | Read of value  (** a completed GET and the value it returned *)
  | Write of value  (** a PUT ([Some seq]) or DEL ([None]) *)

(** Whether the client saw the operation succeed. A [Failed] write is
    ambiguous — it may or may not have taken effect — and the checker
    explores both branches; failed reads carry no obligation and should
    simply not be recorded. *)
type outcome = Ok | Failed

type op = { start : float; finish : float; kind : kind; outcome : outcome }
(** [finish] is ignored for [Failed] ops (their effective response time
    is +infinity: a failed write may linearize arbitrarily late). *)

type t
(** A mutable history recorder. *)

val create : unit -> t

val record : t -> key:string -> op -> unit

val total : t -> int
(** Operations recorded across all keys. *)

val keys : t -> string list
(** Recorded keys, sorted (deterministic iteration order). *)

val ops : t -> string -> op list
(** One key's operations, by invocation time. *)

(** A checker verdict. When the search space was exhausted,
    [Violation.detail] includes the offending key's full history, preceded
    by a minimal stale-read witness when one exists: the first read (by
    invocation) that returned [v] although an [Ok] write of another value
    finished before it began, and every write of [v] (the initial [None]
    included) finished before that write began. When the search was cut
    off, it is a budget note instead (a cut-off counts as a violation so it
    can never silently pass). *)
type result =
  | Linearizable
  | Violation of { key : string; detail : string }

val check_key : ?budget:int -> t -> string -> result
(** Wing–Gong search over one key: is there a total order of its ops,
    consistent with real-time (an op invoked after another's response
    orders after it), under which every read returns the latest written
    value? Memoized on (linearized set, register value). *)

val check : ?budget:int -> t -> result
(** {!check_key} over every key, first violation wins. *)
