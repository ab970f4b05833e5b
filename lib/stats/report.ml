(* ASCII table / series printers used by the benchmark harness to emit
   paper-style tables and figure data. *)

let pad_left width s =
  let n = String.length s in
  if n >= width then s else String.make (width - n) ' ' ^ s

let pad_right width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

(* Print a table: first column left-aligned (row label), rest right-aligned. *)
let table ?title ~columns rows =
  (match title with
  | Some t ->
      print_newline ();
      Printf.printf "== %s ==\n" t
  | None -> ());
  let all = columns :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell) row)
    all;
  let print_row row =
    let cells =
      List.mapi (fun i cell -> if i = 0 then pad_right widths.(i) cell else pad_left widths.(i) cell) row
    in
    print_endline ("| " ^ String.concat " | " cells ^ " |")
  in
  let sep =
    "|" ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "|"
  in
  print_row columns;
  print_endline sep;
  List.iter print_row rows

(* Figure data: one row per x value, one column per named series. *)
let series ?title ~x_label ~(xs : string list) (named : (string * float list) list) =
  let columns = x_label :: List.map fst named in
  let rows =
    List.mapi
      (fun i x ->
        x
        :: List.map
             (fun (_, ys) -> match List.nth_opt ys i with Some y -> Printf.sprintf "%.3g" y | None -> "-")
             named)
      xs
  in
  table ?title ~columns rows

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let pct v = Printf.sprintf "%.1f%%" (100. *. v)
let kqps v = Printf.sprintf "%.1f" (v /. 1e3)
let usec v = Printf.sprintf "%.1f" (v *. 1e6)
