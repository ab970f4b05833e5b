(** ASCII table / series printers used by the benchmark harness to emit
    paper-style tables and figure data. *)

val table : ?title:string -> columns:string list -> string list list -> unit
(** Print an aligned table: first column left-aligned (row label), the
    rest right-aligned. *)

val series :
  ?title:string -> x_label:string -> xs:string list -> (string * float list) list -> unit
(** Figure data: one row per x value, one column per named series. *)

(** {1 Cell formatters} *)

val f1 : float -> string
val f2 : float -> string

val pct : float -> string
(** Fraction → ["42.0%"]. *)

val kqps : float -> string
(** Ops/s → thousands with one decimal. *)

val usec : float -> string
(** Seconds → microseconds with one decimal. *)
