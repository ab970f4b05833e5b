(** Figures 6 and 14: average latency vs throughput for the six YCSB
    workloads across the four compared systems, every system driven
    through the backend-generic boundary. *)

val run_size : fast:bool -> object_size:int -> unit
(** One full grid at the given object size (fig14 reuses this at 256 B). *)

val run : fast:bool -> unit
