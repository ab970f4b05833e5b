(** Figure 5: energy efficiency (K queries per Joule) of the three
    persistent KV systems across the six YCSB workloads, for 256 B and
    1 KB objects, all driven through the backend-generic boundary. *)

val run : fast:bool -> unit
