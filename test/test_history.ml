(* Unit tests for the Wing–Gong linearizability checker: histories that
   must pass (sequential, concurrent-but-orderable, ambiguous failed
   writes on either branch) and histories that must fail (stale reads,
   lost updates, values from nowhere, non-monotonic reads). *)

open Leed_fault

let op ?(outcome = History.Ok) start finish kind =
  { History.start; finish; kind; outcome }

let record_all l =
  let h = History.create () in
  List.iter (fun (key, o) -> History.record h ~key o) l;
  h

let check_lin name h =
  match History.check h with
  | History.Linearizable -> ()
  | History.Violation { key; detail } ->
      Alcotest.failf "%s: expected linearizable, got violation on %s: %s" name key detail

let check_viol name h =
  match History.check h with
  | History.Violation _ -> ()
  | History.Linearizable -> Alcotest.failf "%s: violation not detected" name

(* --- histories that must pass --- *)

let test_empty_and_sequential () =
  check_lin "empty" (History.create ());
  check_lin "sequential"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 1.5 2.0 (History.Read (Some 1)));
         ("k", op 2.5 3.0 (History.Write (Some 2)));
         ("k", op 3.5 4.0 (History.Read (Some 2)));
       ]);
  (* a read before any write sees the initial None *)
  check_lin "initial read"
    (record_all [ ("k", op 0.0 1.0 (History.Read None)) ])

let test_concurrent_orderable () =
  (* two overlapping writes and a read of each: ordering w1 < r1 < w2 < r2
     works even though w1/w2 overlap and r1 overlaps w2 *)
  check_lin "concurrent writes"
    (record_all
       [
         ("k", op 0.0 2.0 (History.Write (Some 1)));
         ("k", op 1.0 3.0 (History.Write (Some 2)));
         ("k", op 1.5 2.5 (History.Read (Some 1)));
         ("k", op 3.5 4.0 (History.Read (Some 2)));
       ]);
  (* a read concurrent with a write may see either side *)
  check_lin "read sees new value early"
    (record_all
       [
         ("k", op 0.0 5.0 (History.Write (Some 1)));
         ("k", op 1.0 1.5 (History.Read (Some 1)));
       ]);
  check_lin "read sees old value during write"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 2.0 6.0 (History.Write (Some 2)));
         ("k", op 3.0 3.5 (History.Read (Some 1)));
       ])

let test_failed_write_both_branches () =
  (* branch A: the failed write took effect — a later read sees it *)
  check_lin "failed write happened"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 2.0 2.5 ~outcome:History.Failed (History.Write (Some 2)));
         ("k", op 3.0 3.5 (History.Read (Some 2)));
       ]);
  (* branch B: it never took effect — reads keep the old value forever *)
  check_lin "failed write never happened"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 2.0 2.5 ~outcome:History.Failed (History.Write (Some 2)));
         ("k", op 3.0 3.5 (History.Read (Some 1)));
         ("k", op 4.0 4.5 (History.Read (Some 1)));
       ]);
  (* a failed write may even linearize late, after reads that missed it *)
  check_lin "failed write lands late"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 2.0 2.5 ~outcome:History.Failed (History.Write (Some 2)));
         ("k", op 3.0 3.5 (History.Read (Some 1)));
         ("k", op 4.0 4.5 (History.Read (Some 2)));
       ])

let test_keys_independent () =
  (* per-key registers: interleaved keys never constrain each other *)
  check_lin "two keys"
    (record_all
       [
         ("a", op 0.0 1.0 (History.Write (Some 1)));
         ("b", op 0.5 1.5 (History.Write (Some 9)));
         ("a", op 2.0 2.5 (History.Read (Some 1)));
         ("b", op 2.0 2.5 (History.Read (Some 9)));
       ])

(* --- histories that must fail --- *)

let test_stale_read () =
  (* the write committed at t=1; a read starting at t=2 must see it *)
  check_viol "stale read"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 2.0 3.0 (History.Read None));
       ])

let test_value_from_nowhere () =
  check_viol "value from nowhere"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 2.0 3.0 (History.Read (Some 7)));
       ])

let test_lost_update () =
  (* sequential writes 1 then 2; a later read returning 1 is a lost update *)
  check_viol "lost update"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 2.0 3.0 (History.Write (Some 2)));
         ("k", op 4.0 5.0 (History.Read (Some 1)));
       ])

let test_non_monotonic_reads () =
  (* reads going 2 then back to 1, both after both writes responded:
     no sequential order serves 2 before 1 *)
  check_viol "non-monotonic reads"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 1.5 2.0 (History.Write (Some 2)));
         ("k", op 3.0 3.5 (History.Read (Some 2)));
         ("k", op 4.0 4.5 (History.Read (Some 1)));
       ])

let test_failed_write_cannot_flicker () =
  (* a failed write either happened or it didn't — reads can't see it,
     then un-see it, then see it again *)
  check_viol "flickering failed write"
    (record_all
       [
         ("k", op 0.0 1.0 (History.Write (Some 1)));
         ("k", op 2.0 2.5 ~outcome:History.Failed (History.Write (Some 2)));
         ("k", op 3.0 3.5 (History.Read (Some 2)));
         ("k", op 4.0 4.5 (History.Read (Some 1)));
       ])

let violation_detail name h =
  match History.check h with
  | History.Violation { detail; _ } -> detail
  | History.Linearizable -> Alcotest.failf "%s: violation not detected" name

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_stale_read_witness () =
  (* write 2 finished after every write of 1 and before the read of 1
     began: the pair proves the read stale, ahead of the full history *)
  let detail =
    violation_detail "witness"
      (record_all
         [
           ("k", op 0.0 1.0 (History.Write (Some 1)));
           ("k", op 2.0 3.0 (History.Write (Some 2)));
           ("k", op 4.0 5.0 (History.Read (Some 1)));
         ])
  in
  let witness =
    "witness: read seq 1 [4.000000, 5.000000] began after write seq 2 [2.000000, 3.000000] \
     overwrote its value; history:"
  in
  Alcotest.(check bool) (Printf.sprintf "witness in %S" detail) true (contains detail witness);
  (* with overlapping writes either may linearize last, so no pair alone
     proves a read stale, although reading 2 then 1 still has no order *)
  let detail =
    violation_detail "no witness"
      (record_all
         [
           ("k", op 0.0 2.0 (History.Write (Some 1)));
           ("k", op 1.0 3.0 (History.Write (Some 2)));
           ("k", op 4.0 5.0 (History.Read (Some 2)));
           ("k", op 6.0 7.0 (History.Read (Some 1)));
         ])
  in
  Alcotest.(check bool) (Printf.sprintf "no witness in %S" detail) false (contains detail "witness")

let test_budget_cutoff_is_loud () =
  (* an absurd budget of 1 state must fail closed, not pass *)
  let h =
    record_all
      [
        ("k", op 0.0 1.0 (History.Write (Some 1)));
        ("k", op 2.0 3.0 (History.Read (Some 1)));
      ]
  in
  (match History.check_key ~budget:1 h "k" with
  | History.Violation { detail; _ } ->
      Alcotest.(check bool)
        "cutoff mentions the budget" true
        (String.length detail > 0)
  | History.Linearizable -> Alcotest.fail "budget cutoff passed silently");
  (* and the same history passes with the default budget *)
  check_lin "default budget" h

let () =
  Alcotest.run "leed_history"
    [
      ( "pass",
        [
          Alcotest.test_case "empty and sequential" `Quick test_empty_and_sequential;
          Alcotest.test_case "concurrent but orderable" `Quick test_concurrent_orderable;
          Alcotest.test_case "failed writes: both branches" `Quick
            test_failed_write_both_branches;
          Alcotest.test_case "keys are independent" `Quick test_keys_independent;
        ] );
      ( "fail",
        [
          Alcotest.test_case "stale read" `Quick test_stale_read;
          Alcotest.test_case "value from nowhere" `Quick test_value_from_nowhere;
          Alcotest.test_case "lost update" `Quick test_lost_update;
          Alcotest.test_case "non-monotonic reads" `Quick test_non_monotonic_reads;
          Alcotest.test_case "failed write cannot flicker" `Quick
            test_failed_write_cannot_flicker;
          Alcotest.test_case "stale read witness" `Quick test_stale_read_witness;
          Alcotest.test_case "budget cutoff fails closed" `Quick test_budget_cutoff_is_loud;
        ] );
    ]
