(** Figure 10: the intra-JBOF data swapping mechanism under write
    imbalance — write-only Zipf workload, swap on vs off. *)

val run : fast:bool -> unit
