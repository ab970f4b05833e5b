(** Log-scale latency histogram (HdrHistogram-style).

    Values are bucketed geometrically with ratio [1 + precision]; quantile
    queries return the upper edge of the containing bucket, so a reported
    percentile overestimates by at most [precision] relative error. *)

type t

val create : ?precision:float -> unit -> t
(** [precision] defaults to 1% relative error; values below 1 ns share
    bucket 0. *)

val record : ?count:int -> t -> float -> unit
(** Record a non-negative value ([count] occurrences). *)

val count : t -> int

val mean : t -> float
(** Exact (tracked outside the buckets). *)

val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t q] for q in [0, 1]; within [precision] relative error.
    The bucket walk goes down from the highest occupied bucket. *)

val percentile_scan : t -> float -> float
(** {!percentile} by a walk from bucket 0: the reference the property
    tests hold {!percentile} to, bit for bit. *)

val median : t -> float
val p99 : t -> float
val p999 : t -> float

val merge : into:t -> t -> unit
(** Requires the same [precision]. *)

val reset : t -> unit
