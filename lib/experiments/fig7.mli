(** Figure 7: CRRS (chain replication with request shipping) vs no CRRS
    under read imbalance, YCSB-B/C over swept Zipf skew. *)

val run : fast:bool -> unit
