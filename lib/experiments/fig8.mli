(** Figure 8: load-aware scheduling on vs off (token engine + client
    flow control), YCSB-B/C over swept Zipf skew. *)

val run : fast:bool -> unit
