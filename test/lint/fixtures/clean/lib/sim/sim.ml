(* The substrate's engine pointer: R6-allowlisted by file, no
   annotation needed. *)
let current = ref None
let set_current e = current := e

(* The GC policy's owner: R8-allowlisted by file path. *)
let tighten_gc () = Gc.set { (Gc.get ()) with Gc.space_overhead = 80 }
