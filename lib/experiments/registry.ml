type entry = string * (fast:bool -> unit)

(* An experiment whose windows do not scale runs the same either way. *)
let fixed run ~fast:_ = run ()

let paper =
  [
    ("table1", fixed Table1.run);
    ("fig1", fixed Fig1.run);
    ("table3", fixed Table3.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("fig9", fixed Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", fixed Fig11.run);
    ("fig12", fixed Fig12.run);
    ("fig13", fixed Fig13.run);
    ("fig14", Fig14.run);
  ]

let all = paper @ [ ("failslow", Fig_failslow.run) ]

let resolve names =
  match List.filter (fun n -> not (List.mem_assoc n all)) names with
  | [] -> Ok (List.map (fun n -> (n, List.assoc n all)) names)
  | unknown -> Error unknown
