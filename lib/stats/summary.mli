(** Streaming scalar summary: count / sum / mean / variance (Welford) /
    extrema, in O(1) space. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val sum : t -> float
val mean : t -> float

val stddev : t -> float
val min_value : t -> float
val max_value : t -> float
val reset : t -> unit
