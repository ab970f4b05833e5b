val tune : unit -> unit
val settle : unit -> unit
val squeeze : unit -> unit
val words : unit -> float
