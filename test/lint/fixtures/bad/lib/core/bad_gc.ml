let tune () = Gc.set { (Gc.get ()) with Gc.space_overhead = 200 }
let settle () = Gc.full_major ()
let squeeze () = Gc.compact ()
let words () = Gc.minor_words ()
let step () = Gc.major ()
let flush () = Gc.minor ()
let nibble () = ignore (Gc.major_slice 0)
