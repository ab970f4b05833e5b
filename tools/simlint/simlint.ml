(* simlint — determinism and effect-discipline lint for the LEED simulation
   substrate.

   Every figure this repo reproduces depends on the discrete-event core
   being deterministic: same seed, same event order, same numbers. This
   tool walks the parsetree (compiler-libs) of every [.ml] under the
   directories given on the command line (default: lib bin bench) and
   enforces the repo rules:

     R1 determinism      no [Random.*] outside lib/sim/rng.ml; no [Unix.*]
                         or [Sys.time] under lib/ (wall-clock reporting is
                         allowlisted in bin/ and bench/)
     R2 effect discipline [Effect.perform] only inside lib/sim/ — every
                         other layer must block through the Sim API, since
                         event-heap callbacks must not perform effects
     R3 interface coverage every lib/**/*.ml has a matching .mli
     R4 banned constructs [Obj.magic]; order-sensitive [Hashtbl.iter]/
                         [Hashtbl.fold] in lib/ (annotate reviewed sites
                         with a "simlint: allow hashtbl-order" comment);
                         polymorphic [compare] applied to function literals;
                         [Hashtbl.hash] under lib/core/ — on-flash
                         integrity checks must be real checksums
                         (Codec.crc32), never the memory-layout hash
     R5 doc coverage     every exported value of the curated interfaces
                         (lib/sim/sim.mli, lib/core/engine.mli, every
                         lib/trace/*.mli) carries a doc comment — the
                         container has no odoc, so this stands in for
                         failing the build on missing-doc warnings
     R6 toplevel state   no mutable state created at module
                         initialisation time under lib/: a module-level
                         [ref]/[Hashtbl.create]/[Queue.create]/... is
                         state shared by every simulation in the
                         process, survives across [Sim.run] calls, and
                         is exactly the kind of cross-process channel
                         the race detector (leed race) exists to catch.
                         Arrays and record literals are flagged only
                         when the file also mutates the binding
                         (init-only lookup tables stay legal). The
                         substrate's own engine pointer is allowlisted.
     R7 time compare     no raw float comparison against [Sim.now ()]
                         outside lib/sim/: [Sim.now () < t] encodes a
                         hidden assumption about equal-time event order;
                         deadline logic must go through the epsilon-free
                         helpers [Sim.reached]/[Sim.past]/
                         [Sim.same_instant]

   Violations print "file:line: rule: message" and the exit status is
   non-zero. A finding can be suppressed by a comment containing
   "simlint: allow <tag>" on the same or the preceding line, where <tag>
   is the rule id (R1..R7) or its specific name (random, wall-clock,
   effect, hashtbl-order, hashtbl-hash, obj-magic, compare-fun, doc,
   toplevel-state, time-compare). *)

let scope_default = [ "lib"; "bin"; "bench"; "tools" ]

let mli_exempt_dirs = []

let random_allowed_files = [ "lib/sim/rng.ml" ]

(* R6 allowlist: the engine substrate itself. [Sim]'s current-engine
   pointer is the mechanism that gives every other module a process-local
   view; it is re-initialised by each [Sim.run] and cannot be expressed
   any other way with effects. *)
let r6_allowed_files = [ "lib/sim/sim.ml" ]

(* ------------------------------------------------------------------ *)

type violation = { file : string; line : int; rule : string; tag : string; msg : string }

let violations : violation list ref = ref []

let report ~file ~line ~rule ~tag msg =
  violations := { file; line; rule; tag; msg } :: !violations

(* --- suppression comments --- *)

let contains_at s sub i =
  let n = String.length sub in
  i + n <= String.length s && String.sub s i n = sub

(* All (line, tag) pairs from "simlint: allow <tag>" comments in [text];
   several tags may follow one marker, separated by commas. *)
let allow_marks text =
  let marks = ref [] in
  let line = ref 1 in
  let marker = "simlint: allow " in
  String.iteri
    (fun i c ->
      if c = '\n' then incr line
      else if c = 's' && contains_at text marker i then begin
        let j = ref (i + String.length marker) in
        let len = String.length text in
        let buf = Buffer.create 16 in
        let flush_tag () =
          if Buffer.length buf > 0 then begin
            marks := (!line, Buffer.contents buf) :: !marks;
            Buffer.clear buf
          end
        in
        let continue = ref true in
        while !continue && !j < len do
          (match text.[!j] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> Buffer.add_char buf text.[!j]
          | ',' | ' ' when Buffer.length buf > 0 -> flush_tag ()
          | ' ' -> ()
          | _ -> continue := false);
          incr j
        done;
        flush_tag ()
      end)
    text;
  !marks

let suppressed marks ~line ~rule ~tag =
  List.exists (fun (l, t) -> (l = line || l = line - 1) && (t = rule || t = tag)) marks

(* --- path classification (paths are '/'-separated, relative to the
   repo root, as handed to us by the dune lint alias) --- *)

let under dir path =
  let d = dir ^ "/" in
  String.length path >= String.length d && String.sub path 0 (String.length d) = d

let in_lib path = under "lib" path
let in_sim path = under "lib/sim" path
let wall_clock_allowed path = under "bin" path || under "bench" path

(* --- longident helpers --- *)

let flatten lid = try Longident.flatten lid with _ -> []

(* Normalize [Stdlib.Random.int] to [Random.int] etc. *)
let path_of lid =
  match flatten lid with "Stdlib" :: rest -> rest | parts -> parts

(* ------------------------------------------------------------------ *)
(* Per-file AST walk. *)

let is_function_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

(* --- R6 helpers --- *)

(* Constructors whose toplevel evaluation is mutable state by itself. *)
let mutable_creator parts =
  match parts with
  | [ "ref" ] -> Some "ref"
  | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer"); "create" ] ->
      Some (String.concat "." parts)
  | [ "Atomic"; "make" ] -> Some "Atomic.make"
  | _ -> None

(* Constructors that are only *potentially* mutable (lookup tables are
   fine); flagged when the file later mutates the binding. *)
let array_creator parts =
  match parts with
  | [ "Array"; ("make" | "init" | "create_float" | "make_matrix") ] -> true
  | [ "Bytes"; ("make" | "create" | "init") ] -> true
  | _ -> false

(* Names the file mutates in place: [name.field <- e], [name.(i) <- e]
   (parsed as [Array.set name i e]), [Array.fill name ...], etc. *)
let mutated_names (str : Parsetree.structure) =
  let open Ast_iterator in
  let names = Hashtbl.create 16 in
  let ident_name (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> Some n
    | _ -> None
  in
  let expr_iter (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_setfield (target, _, _) -> (
        match ident_name target with
        | Some n -> Hashtbl.replace names n ()
        | None -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, first) :: _) -> (
        match path_of txt with
        | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill" | "blit") ] -> (
            match ident_name first with
            | Some n -> Hashtbl.replace names n ()
            | None -> ())
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_iter } in
  it.structure it str;
  names

(* Scan a toplevel binding's RHS for mutable-state constructors that run
   at module initialisation: descend through everything *except*
   function literals (whose bodies run per call, not at init). *)
let init_time_creators ~mutated ~name (e : Parsetree.expression) =
  let found = ref [] in
  let open Ast_iterator in
  let expr_iter (it : Ast_iterator.iterator) (child : Parsetree.expression) =
    if is_function_literal child then ()
    else begin
      (match child.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
          match mutable_creator (path_of txt) with
          | Some what -> found := (child.pexp_loc, what) :: !found
          | None ->
              if array_creator (path_of txt) && Hashtbl.mem mutated name then
                found := (child.pexp_loc, String.concat "." (path_of txt)) :: !found)
      | Pexp_array _ when Hashtbl.mem mutated name ->
          found := (child.pexp_loc, "array literal") :: !found
      | Pexp_record _ when Hashtbl.mem mutated name ->
          found := (child.pexp_loc, "mutated record literal") :: !found
      | _ -> ());
      Ast_iterator.default_iterator.expr it child
    end
  in
  let it = { Ast_iterator.default_iterator with expr = expr_iter } in
  it.expr it e;
  List.rev !found

(* A call to the simulation clock, [Sim.now ()] (possibly qualified as
   [Leed_sim.Sim.now ()]). *)
let is_now_call (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match List.rev (path_of txt) with "now" :: "Sim" :: _ -> true | _ -> false)
  | _ -> false

let comparison_op parts =
  match parts with
  | [ ("=" | "<>" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "compare") ] -> true
  | [ "Float"; ("equal" | "compare") ] -> true
  | _ -> false

let lint_structure ~file (str : Parsetree.structure) =
  let open Ast_iterator in
  let line_of (loc : Location.t) = loc.loc_start.pos_lnum in
  let check_ident lid loc =
    let line = line_of loc in
    match path_of lid with
    | "Random" :: _ when not (List.mem file random_allowed_files) ->
        report ~file ~line ~rule:"R1" ~tag:"random"
          (Printf.sprintf "use of Random.%s: all randomness must flow from seeded \
                           Rng.t values (lib/sim/rng.ml)"
             (match List.rev (path_of lid) with x :: _ -> x | [] -> "?"))
    | "Unix" :: _ when not (wall_clock_allowed file) ->
        report ~file ~line ~rule:"R1" ~tag:"wall-clock"
          "use of Unix.*: wall-clock and OS state are nondeterministic; simulated \
           time comes from Sim.now (allowlisted only in bin/ and bench/)"
    | [ "Sys"; "time" ] when not (wall_clock_allowed file) ->
        report ~file ~line ~rule:"R1" ~tag:"wall-clock"
          "use of Sys.time: wall-clock reads are nondeterministic; use Sim.now"
    | [ "Effect"; "perform" ] when not (in_sim file) ->
        report ~file ~line ~rule:"R2" ~tag:"effect"
          "Effect.perform outside lib/sim/: blocking must go through the Sim API \
           (event-heap callbacks must not perform effects)"
    | [ "Obj"; "magic" ] ->
        report ~file ~line ~rule:"R4" ~tag:"obj-magic" "Obj.magic is banned"
    | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") as fn ] when under "lib/core" file ->
        report ~file ~line ~rule:"R4" ~tag:"hashtbl-hash"
          (Printf.sprintf
             "Hashtbl.%s is not a checksum: it hashes the in-memory representation, \
              is not stable across versions, and detects no bit rot; on-flash \
              integrity must use Codec.crc32"
             fn)
    | [ "Hashtbl"; ("iter" | "fold") as fn ] when in_lib file ->
        report ~file ~line ~rule:"R4" ~tag:"hashtbl-order"
          (Printf.sprintf
             "Hashtbl.%s iterates in hash-bucket order, which must not leak into \
              scheduling or output; sort the bindings, or annotate the reviewed \
              site with (* simlint: allow hashtbl-order *)"
             fn)
    | _ -> ()
  in
  let expr_iter (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident txt loc
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        (match path_of txt with
        | [ "compare" ] | [ "Stdlib"; "compare" ] ->
            if List.exists (fun (_, a) -> is_function_literal a) args then
              report ~file ~line:(line_of e.pexp_loc) ~rule:"R4" ~tag:"compare-fun"
                "polymorphic compare applied to a function literal raises at \
                 runtime and is never deterministic"
        | _ -> ());
        (* R7: a comparison operator with a [Sim.now ()] call as a direct
           operand. Allowed inside lib/sim/, where the helpers live. *)
        if
          (not (in_sim file))
          && comparison_op (path_of txt)
          && List.exists (fun (_, a) -> is_now_call a) args
        then
          report ~file ~line:(line_of e.pexp_loc) ~rule:"R7" ~tag:"time-compare"
            "raw float comparison on virtual time: deadline logic must use the \
             epsilon-free helpers Sim.reached / Sim.past / Sim.same_instant \
             (comparing Sim.now () directly encodes hidden assumptions about \
             equal-time event ordering)")
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  (* R6: mutable state created when the module is first linked. Structure
     items only occur at module level (including nested [module M = struct
     ... end] bodies), so the default iterator visits exactly the
     bindings whose RHS runs at initialisation time. *)
  let r6_active = in_lib file && not (List.mem file r6_allowed_files) in
  let mutated = if r6_active then mutated_names str else Hashtbl.create 1 in
  let item_iter (it : Ast_iterator.iterator) (item : Parsetree.structure_item) =
    (match item.pstr_desc with
    | Pstr_value (_, bindings) when r6_active ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let name =
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> txt
              | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
              | _ -> "_"
            in
            List.iter
              (fun ((loc : Location.t), what) ->
                report ~file ~line:(line_of loc) ~rule:"R6" ~tag:"toplevel-state"
                  (Printf.sprintf
                     "module-toplevel mutable state (%s bound to %s): this outlives \
                      Sim.run and is shared by every simulation in the process; pass \
                      state through the engine or annotate a reviewed singleton with \
                      (* simlint: allow toplevel-state *)"
                     what name))
              (init_time_creators ~mutated ~name vb.pvb_expr))
          bindings
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it item
  in
  let it =
    { Ast_iterator.default_iterator with expr = expr_iter; structure_item = item_iter }
  in
  it.structure it str

(* Read [file], run [lint text] (which reports violations), then drop the
   fresh findings that a "simlint: allow" comment in the file covers. *)
let with_suppressions file lint =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  let marks = allow_marks text in
  let before = !violations in
  (try lint text
   with exn ->
     let line =
       match exn with
       | Syntaxerr.Error e -> (Syntaxerr.location_of_error e).loc_start.pos_lnum
       | _ -> 1
     in
     report ~file ~line ~rule:"parse" ~tag:"parse"
       (Printf.sprintf "failed to parse: %s" (Printexc.to_string exn)));
  (* Apply suppression comments to this file's fresh findings only. *)
  let fresh, rest =
    let rec split acc = function
      | l when l == before -> (acc, l)
      | v :: l -> split (v :: acc) l
      | [] -> (acc, [])
    in
    split [] !violations
  in
  violations :=
    List.filter (fun v -> not (suppressed marks ~line:v.line ~rule:v.rule ~tag:v.tag)) fresh
    @ rest

let lint_file file =
  with_suppressions file (fun text ->
      let lexbuf = Lexing.from_string text in
      Location.init lexbuf file;
      lint_structure ~file (Parse.implementation lexbuf))

(* ------------------------------------------------------------------ *)
(* R5: documentation coverage for the curated interfaces. *)

let doc_required_files =
  [
    "lib/sim/sim.mli";
    "lib/sim/event_store.mli";
    "lib/sim/event_heap.mli";
    "lib/sim/calendar_queue.mli";
    "lib/sim/timing_wheel.mli";
    "lib/sim/scheduler.mli";
    "lib/core/engine.mli";
    "lib/core/replication.mli";
    "lib/core/netcache.mli";
  ]

let doc_required file =
  Filename.check_suffix file ".mli"
  && (List.mem file doc_required_files || under "lib/trace" file)

let has_doc_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = "ocaml.doc" || a.attr_name.txt = "doc")
    attrs

let lint_interface ~file (sg : Parsetree.signature) =
  let open Ast_iterator in
  let item_iter (it : Ast_iterator.iterator) (item : Parsetree.signature_item) =
    (match item.psig_desc with
    | Psig_value vd when not (has_doc_attr vd.pval_attributes) ->
        report ~file ~line:item.psig_loc.loc_start.pos_lnum ~rule:"R5" ~tag:"doc"
          (Printf.sprintf
             "undocumented value %s: every exported value of this interface must \
              carry a (** ... *) comment"
             vd.pval_name.txt)
    | _ -> ());
    Ast_iterator.default_iterator.signature_item it item
  in
  let it = { Ast_iterator.default_iterator with signature_item = item_iter } in
  it.signature it sg

let lint_mli file =
  with_suppressions file (fun text ->
      let lexbuf = Lexing.from_string text in
      Location.init lexbuf file;
      lint_interface ~file (Parse.interface lexbuf))

(* ------------------------------------------------------------------ *)
(* R3: interface coverage. *)

let check_mli_coverage file =
  if
    in_lib file
    && Filename.check_suffix file ".ml"
    && not (List.exists (fun d -> under d file) mli_exempt_dirs)
    && not (Sys.file_exists (file ^ "i"))
  then
    report ~file ~line:1 ~rule:"R3" ~tag:"mli"
      (Printf.sprintf "missing interface file %si: every lib module must declare \
                       its surface"
         file)

(* ------------------------------------------------------------------ *)

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || entry = ".git" then acc
        else walk (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" then path :: acc
  else if doc_required path then path :: acc
  else acc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let dirs = if args = [] then scope_default else args in
  let files =
    List.concat_map
      (fun d ->
        if Sys.file_exists d then List.rev (walk d [])
        else begin
          Printf.eprintf "simlint: no such directory: %s\n" d;
          exit 2
        end)
      dirs
  in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".mli" then lint_mli f
      else begin
        check_mli_coverage f;
        lint_file f
      end)
    files;
  (* Total order over every field: two findings on the same line from the
     same rule still sort stably, so output is byte-identical across runs
     and diff-friendly in CI. *)
  let vs =
    List.sort
      (fun a b ->
        compare (a.file, a.line, a.rule, a.tag, a.msg) (b.file, b.line, b.rule, b.tag, b.msg))
      !violations
  in
  List.iter (fun v -> Printf.printf "%s:%d: %s: %s\n" v.file v.line v.rule v.msg) vs;
  if vs = [] then Printf.printf "simlint: OK (%d files)\n" (List.length files)
  else begin
    Printf.printf "simlint: %d violation(s) in %d file(s)\n" (List.length vs)
      (List.length (List.sort_uniq compare (List.map (fun v -> v.file) vs)));
    exit 1
  end
