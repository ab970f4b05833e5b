val tune : unit -> unit
val settle : unit -> unit
val squeeze : unit -> unit
val words : unit -> float
val step : unit -> unit
val flush : unit -> unit
val nibble : unit -> unit
