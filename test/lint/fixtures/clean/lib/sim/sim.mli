val current : int option ref
(** The engine pointer singleton (R6-allowlisted by file path). *)

val set_current : int option -> unit
(** Install an engine. *)

val tighten_gc : unit -> unit
(** Set the process's GC policy (R8-allowlisted by file path). *)
