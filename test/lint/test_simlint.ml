(* Driver for the simlint fixture suite.

   Runs the linter over two fixture trees: one seeded with a known set of
   R1-R8 violations that must all be flagged at the right file:line, and a
   clean tree (including allowlisted Random/Effect/wall-clock/toplevel-state
   uses and suppression comments) that must pass. Invoked by dune with the
   path to the simlint executable as the single argument. *)

let exe =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: test_simlint SIMLINT_EXE";
    exit 2
  end
  else
    let p = Sys.argv.(1) in
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let failures = ref 0

let fail fmt = Printf.ksprintf (fun s -> incr failures; Printf.printf "FAIL %s\n" s) fmt
let pass fmt = Printf.ksprintf (fun s -> Printf.printf "ok   %s\n" s) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* Run the linter with [dir] as its working directory (rule paths are
   relative, so fixtures mirror the repo layout under each tree). *)
let run_simlint ~dir args =
  let root = Sys.getcwd () in
  let out = Filename.concat root ("simlint-" ^ Filename.basename dir ^ ".out") in
  Sys.chdir dir;
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) (String.concat " " args)
      (Filename.quote out)
  in
  let status = Sys.command cmd in
  Sys.chdir root;
  (status, read_file out)

let expect_line output what needle =
  if contains output needle then pass "%s" what
  else fail "%s: expected %S in output" what needle

let expect_absent output what needle =
  if contains output needle then fail "%s: %S must not appear in output" what needle
  else pass "%s" what

let () =
  (* --- seeded violations: every rule must fire at the seeded line --- *)
  let status, out = run_simlint ~dir:"fixtures/bad" [ "lib" ] in
  if status = 0 then fail "bad tree: expected non-zero exit"
  else pass "bad tree: non-zero exit";
  expect_line out "R1 random flagged" "lib/core/bad_random.ml:1: R1";
  expect_line out "R1 Unix flagged" "lib/core/bad_wallclock.ml:1: R1";
  expect_line out "R1 Sys.time flagged" "lib/core/bad_wallclock.ml:2: R1";
  expect_line out "R2 effect flagged" "lib/core/bad_effect.ml:1: R2";
  expect_line out "R3 missing mli flagged" "lib/core/no_iface.ml:1: R3";
  expect_line out "R4 Hashtbl.fold flagged" "lib/core/bad_hashtbl.ml:1: R4";
  expect_line out "R4 Hashtbl.hash-as-checksum flagged" "lib/core/bad_hash.ml:1: R4";
  expect_line out "R4 Hashtbl.iter flagged" "lib/core/bad_hashtbl.ml:2: R4";
  expect_absent out "suppressed Hashtbl.fold not flagged" "bad_hashtbl.ml:4";
  expect_line out "R4 functor-table fold flagged" "lib/core/bad_hashtbl.ml:6: R4";
  expect_line out "R4 functor-table iter flagged" "lib/core/bad_hashtbl.ml:7: R4";
  expect_absent out "suppressed functor-table fold not flagged" "bad_hashtbl.ml:9";
  expect_absent out "functor-table lookup not flagged" "bad_hashtbl.ml:10";
  expect_line out "R4 Obj.magic flagged" "lib/core/bad_obj.ml:1: R4";
  expect_line out "R4 compare-on-closure flagged" "lib/core/bad_compare.ml:1: R4";
  expect_line out "R5 undocumented value flagged" "lib/trace/undoc.mli:4: R5";
  expect_absent out "suppressed undocumented value not flagged" "undoc.mli:7";
  expect_line out "R6 toplevel ref flagged" "lib/core/bad_toplevel.ml:1: R6";
  expect_line out "R6 toplevel Hashtbl flagged" "lib/core/bad_toplevel.ml:2: R6";
  expect_line out "R6 mutated toplevel array flagged" "lib/core/bad_toplevel.ml:3: R6";
  expect_absent out "function-local ref not flagged" "bad_toplevel.ml:5";
  expect_line out "R7 time inequality flagged" "lib/core/bad_timecmp.ml:1: R7";
  expect_line out "R7 time equality flagged" "lib/core/bad_timecmp.ml:2: R7";
  expect_absent out "Sim.reached not flagged" "bad_timecmp.ml:3";
  (* replication-seam coverage: the seam module under every structural rule *)
  expect_line out "R3 protocol module without mli flagged" "lib/core/abd.ml:1: R3";
  expect_line out "R5 undocumented replication value flagged" "lib/core/replication.mli:4: R5";
  expect_line out "R6 replication toplevel tag gate flagged" "lib/core/replication.ml:1: R6";
  expect_line out "R7 replication quorum deadline flagged" "lib/core/replication.ml:2: R7";
  expect_line out "R8 Gc.set outside Sim flagged" "lib/core/bad_gc.ml:1: R8";
  expect_line out "R8 Gc.full_major outside Sim flagged" "lib/core/bad_gc.ml:2: R8";
  expect_line out "R8 Gc.compact outside Sim flagged" "lib/core/bad_gc.ml:3: R8";
  expect_absent out "Gc counter read not flagged" "bad_gc.ml:4";
  expect_line out "R8 Gc.major outside Sim flagged" "lib/core/bad_gc.ml:5: R8";
  expect_line out "R8 Gc.minor outside Sim flagged" "lib/core/bad_gc.ml:6: R8";
  expect_line out "R8 Gc.major_slice outside Sim flagged" "lib/core/bad_gc.ml:7: R8";
  expect_line out "exact violation count" "simlint: 28 violation(s)";
  (* --- clean tree: allowlists and suppressions must hold --- *)
  let status, out = run_simlint ~dir:"fixtures/clean" [ "lib"; "bin"; "bench" ] in
  if status <> 0 then fail "clean tree: expected exit 0, got %d:\n%s" status out
  else pass "clean tree: exit 0";
  expect_line out "clean OK banner" "simlint: OK";
  if !failures > 0 then begin
    Printf.printf "test_simlint: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "test_simlint: all checks passed"
