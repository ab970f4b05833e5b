let sum tbl = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.
let visit tbl f = Hashtbl.iter f tbl
(* simlint: allow hashtbl-order -- reviewed: bindings are sorted before use *)
let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare
module Tbl = Hashtbl.Make (Int)
let total tbl = Tbl.fold (fun _ v acc -> acc + v) tbl 0
let walk tbl f = Tbl.iter f tbl
(* simlint: allow hashtbl-order -- reviewed: the minimum is order-independent *)
let least tbl = Tbl.fold (fun _ v acc -> min v acc) tbl max_int
let lookup tbl k = Tbl.find_opt tbl k
