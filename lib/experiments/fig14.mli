(** Figure 14 (appendix): the Figure 6 grid at 256 B objects. *)

val run : fast:bool -> unit
