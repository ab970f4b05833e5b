(* Tests for the per-request data path: the CRC-32 and key hash of the
   on-flash codec, replica-chain selection on the ring, the segment
   table's swapped-out set, and the circular log's wrap-around I/O. Each
   fast path is checked against a plain reference implementation kept
   here, so an optimisation can never move a checksum, a ring placement
   or a byte on flash. *)

open Leed_sim
open Leed_blockdev
open Leed_core

(* --- codec --- *)

(* The bytewise CRC-32 (IEEE, reflected, poly 0xEDB88320): one table
   lookup per byte. *)
let ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ref_crc32 ?(crc = 0) buf ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := ref_table.((!c lxor Char.code (Bytes.get buf i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_known_answer () =
  Alcotest.(check int)
    "CRC-32 of \"123456789\"" 0xCBF43926
    (Codec.crc32 (Bytes.of_string "123456789") ~pos:0 ~len:9);
  Alcotest.(check int) "empty range" 0 (Codec.crc32 Bytes.empty ~pos:0 ~len:0)

let test_crc_bounds () =
  let buf = Bytes.create 16 in
  List.iter
    (fun (pos, len) ->
      match Codec.crc32 buf ~pos ~len with
      | _ -> Alcotest.failf "range pos=%d len=%d accepted" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (10, 7); (17, 0); (5, max_int); (max_int, 5) ]

(* A buffer, a range inside it (misaligned start, any tail length) and a
   split point inside the range. *)
let crc_case =
  QCheck.make
    ~print:(fun (s, pos, len, cut) ->
      Printf.sprintf "buffer %d bytes, pos %d, len %d, cut %d" (String.length s) pos len cut)
    QCheck.Gen.(
      let* len = int_range 0 2048 in
      let* pos = int_range 0 15 in
      let* slack = int_range 0 9 in
      let* s = string_size ~gen:char (return (pos + len + slack)) in
      let* cut = int_range 0 len in
      return (s, pos, len, cut))

let prop_crc_matches_bytewise =
  QCheck.Test.make ~name:"crc32 equals the bytewise reference" ~count:500 crc_case
    (fun (s, pos, len, _) ->
      let buf = Bytes.of_string s in
      Codec.crc32 buf ~pos ~len = ref_crc32 buf ~pos ~len)

let prop_crc_chains =
  QCheck.Test.make ~name:"crc32 of a split range chains to the whole" ~count:500 crc_case
    (fun (s, pos, len, cut) ->
      let buf = Bytes.of_string s in
      let head = Codec.crc32 buf ~pos ~len:cut in
      Codec.crc32 ~crc:head buf ~pos:(pos + cut) ~len:(len - cut) = Codec.crc32 buf ~pos ~len)

(* Ring placement, segment choice and bucket indices all derive from
   [hash_key]: these values pin the function so placement cannot move. *)
let test_hash_key_golden () =
  List.iter
    (fun (k, h) -> Alcotest.(check int) (Printf.sprintf "hash_key %S" k) h (Codec.hash_key k))
    [
      ("", 0x3d4a857a6a6d7a26);
      ("a", 0xb02f6fd205083e);
      ("k000000000000000", 0x2482d6ea79b63195);
      ("k000000000000001", 0x483ab6df3e340c4);
      ("k000000000004242", 0x3c77a507db15e0da);
      ("repair-me", 0x1941c233b5849725);
      ("vn-0-0", 0x14fb757c4795bcc1);
      ("vn-2-3", 0x3f3afde5df5d43dd);
    ]

(* --- ring --- *)

(* Replica-chain selection as a per-call table of seen physical nodes,
   over the public entry list: the reference for [Ring.chain_at]. *)
let ref_chain_at ring ~r p =
  let entries = Array.of_list (Ring.entries ring) in
  let n = Array.length entries in
  if n = 0 then []
  else begin
    let start =
      let rec first i = if i = n then 0 else if entries.(i).Ring.point >= p then i else first (i + 1) in
      first 0
    in
    let picked = ref [] and seen = Hashtbl.create 8 in
    let i = ref 0 in
    while List.length !picked < r && !i < n do
      let e = entries.((start + !i) mod n) in
      if e.Ring.vstate = Ring.Running && not (Hashtbl.mem seen e.Ring.owner.Ring.node) then begin
        Hashtbl.add seen e.Ring.owner.Ring.node ();
        picked := e :: !picked
      end;
      incr i
    done;
    List.rev !picked
  end

(* A ring of [nodes] physical nodes with up to 4 vnodes each, at random
   points and in random states, plus r and lookup points to try. *)
let ring_case =
  QCheck.make
    ~print:(fun (vnodes, r, points) ->
      Printf.sprintf "r=%d vnodes=[%s] points=[%s]" r
        (String.concat "; "
           (List.map (fun (node, vidx, point, st) -> Printf.sprintf "%d.%d@%d:%d" node vidx point st) vnodes))
        (String.concat "; " (List.map string_of_int points)))
    QCheck.Gen.(
      let* nodes = int_range 1 6 in
      let* per_node = list_repeat nodes (int_range 1 4) in
      let* vnodes =
        flatten_l
          (List.concat
             (List.mapi
                (fun node k ->
                  List.init k (fun vidx ->
                      map2 (fun point st -> (node, vidx, point, st)) (int_bound 1_000_000) (int_bound 2)))
                per_node))
      in
      let* r = int_range 1 (nodes + 2) in
      let* points = list_size (int_range 1 20) (int_bound 1_100_000) in
      return (vnodes, r, points))

let prop_chain_at_matches_reference =
  QCheck.Test.make ~name:"chain_at equals the per-call-table reference" ~count:500 ring_case
    (fun (vnodes, r, points) ->
      let ring = Ring.create () in
      List.iter
        (fun (node, vidx, point, st) ->
          let owner = { Ring.node; vidx } in
          ignore (Ring.add ~point ring owner);
          Ring.set_state ring owner (match st with 0 -> Ring.Joining | 1 -> Ring.Running | _ -> Ring.Leaving))
        vnodes;
      List.for_all (fun p -> Ring.chain_at ring ~r p = ref_chain_at ring ~r p) points)

(* --- segment table --- *)

let ref_swapped_out tbl ~home_dev =
  List.filter
    (fun seg ->
      let e = Segtbl.entry tbl seg in
      Segtbl.chain_len e > 0 && Segtbl.dev e <> home_dev)
    (List.init (Segtbl.nsegments tbl) Fun.id)

let prop_swapped_out_matches_scan =
  QCheck.Test.make ~name:"swapped_out equals a full scan after random updates" ~count:300
    QCheck.(list (quad (int_bound 15) (int_bound 3) (int_bound 100) (int_bound 2)))
    (fun updates ->
      Sim.run ~checks:true (fun () ->
          let home_dev = 1 in
          let tbl = Segtbl.create ~nsegments:16 ~home_dev () in
          List.for_all
            (fun (seg, dev, off, chain_len) ->
              Segtbl.update tbl ~seg ~dev ~off ~chain_len;
              Segtbl.swapped_out tbl = ref_swapped_out tbl ~home_dev)
            updates))

(* The reference for the packed table: one boxed record per segment with
   its own FIFO queue of waiting fibers, as the table was first written. *)
type ref_entry = {
  mutable r_dev : int;
  mutable r_off : int;
  mutable r_chain_len : int;
  mutable r_locked : bool;
  r_waiters : int Queue.t; (* fiber ids, oldest first *)
}

type segtbl_cmd =
  | Update of int * int * int * int (* seg, dev, off, chain_len *)
  | Lock of int (* a fresh fiber blocks in [lock] until it holds the lock *)
  | Try_lock of int
  | Unlock of int

let show_segtbl_cmd = function
  | Update (s, d, o, c) -> Printf.sprintf "update %d dev=%d off=%d chain_len=%d" s d o c
  | Lock s -> Printf.sprintf "lock %d" s
  | Try_lock s -> Printf.sprintf "try_lock %d" s
  | Unlock s -> Printf.sprintf "unlock %d" s

let model_nsegments = 4
let model_home_dev = 1

(* Boundary values first: the packed fields' limits and one past them. *)
let gen_segtbl_cmd =
  let open QCheck.Gen in
  let seg = int_bound (model_nsegments - 1) in
  let dev = oneof [ oneofl [ 0; model_home_dev; 2; 254; 255; -1 ]; int_bound 254 ] in
  let off =
    oneof [ oneofl [ -2; -1; 0; 1 lsl 40; (1 lsl 46) - 2; (1 lsl 46) - 1 ]; int_bound 1_000_000 ]
  in
  let chain_len = oneof [ oneofl [ 0; 1; 255; 256; -1 ]; int_bound 8 ] in
  frequency
    [
      (4, map (fun (s, d, o, c) -> Update (s, d, o, c)) (quad seg dev off chain_len));
      (3, map (fun s -> Lock s) seg);
      (1, map (fun s -> Try_lock s) seg);
      (3, map (fun s -> Unlock s) seg);
    ]

let arb_segtbl_cmds =
  QCheck.make
    ~print:(fun cmds -> String.concat "; " (List.map show_segtbl_cmd cmds))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) gen_segtbl_cmd)

(* Every command runs on the packed table and on the reference; after
   each, the entries, the order in which fibers got the lock, the
   swapped-out set (sanitized, so the foreign count is cross-checked by a
   scan) and the number of live waiter queues must agree. *)
let prop_segtbl_matches_model =
  QCheck.Test.make ~name:"packed table matches the boxed reference" ~count:300 arb_segtbl_cmds
    (fun cmds ->
      Sim.run ~checks:true (fun () ->
          let tbl = Segtbl.create ~nsegments:model_nsegments ~home_dev:model_home_dev () in
          let model =
            Array.init model_nsegments (fun _ ->
                {
                  r_dev = model_home_dev;
                  r_off = -1;
                  r_chain_len = 0;
                  r_locked = false;
                  r_waiters = Queue.create ();
                })
          in
          let got = ref [] and want = ref [] and fibers = ref 0 in
          let step = function
            | Update (seg, dev, off, chain_len) ->
                let valid =
                  dev >= 0 && dev <= 254 && chain_len >= 0 && chain_len <= 255 && off >= -1
                  && off <= (1 lsl 46) - 2
                in
                (match Segtbl.update tbl ~seg ~dev ~off ~chain_len with
                | () -> if not valid then QCheck.Test.fail_report "out-of-range update accepted"
                | exception Invalid_argument _ ->
                    if valid then QCheck.Test.fail_report "valid update rejected");
                if valid then begin
                  let m = model.(seg) in
                  m.r_dev <- dev;
                  m.r_off <- off;
                  m.r_chain_len <- chain_len
                end
            | Lock seg ->
                let id = !fibers in
                incr fibers;
                Sim.spawn (fun () ->
                    Segtbl.lock tbl seg;
                    got := id :: !got);
                let m = model.(seg) in
                if m.r_locked then Queue.push id m.r_waiters
                else begin
                  m.r_locked <- true;
                  want := id :: !want
                end
            | Try_lock seg ->
                let m = model.(seg) in
                let ok = Segtbl.try_lock tbl seg in
                if ok = m.r_locked then QCheck.Test.fail_report "try_lock disagrees";
                m.r_locked <- true
            | Unlock seg -> (
                let m = model.(seg) in
                match Segtbl.unlock tbl seg with
                | () ->
                    if not m.r_locked then QCheck.Test.fail_report "unlock of a free segment accepted";
                    if Queue.is_empty m.r_waiters then m.r_locked <- false
                    else want := Queue.pop m.r_waiters :: !want
                | exception Invalid_argument _ ->
                    if m.r_locked then QCheck.Test.fail_report "unlock of a held segment rejected")
          in
          List.for_all
            (fun cmd ->
              step cmd;
              (* Let spawned and woken fibers run. *)
              Sim.delay 1e-6;
              let entries_agree =
                Array.for_all Fun.id
                  (Array.mapi
                     (fun seg m ->
                       let e = Segtbl.entry tbl seg in
                       Segtbl.dev e = m.r_dev && Segtbl.off e = m.r_off
                       && Segtbl.chain_len e = m.r_chain_len
                       && Segtbl.is_materialised e = (m.r_chain_len > 0))
                     model)
              in
              let ref_swapped =
                List.filter
                  (fun seg -> model.(seg).r_chain_len > 0 && model.(seg).r_dev <> model_home_dev)
                  (List.init model_nsegments Fun.id)
              in
              let ref_queues =
                Array.fold_left
                  (fun n m -> if Queue.is_empty m.r_waiters then n else n + 1)
                  0 model
              in
              entries_agree && !got = !want
              && Segtbl.swapped_out tbl = ref_swapped
              && Segtbl.waiter_queues tbl = ref_queues)
            cmds))

(* The packed table's footprint, checked deterministically: one flat
   block of immediate words, no waiter queue once contention drains, and
   no allocation to read an entry. *)
let test_segtbl_footprint () =
  Sim.run (fun () ->
      let n = 4096 in
      let tbl = Segtbl.create ~nsegments:n ~home_dev:0 () in
      for seg = 0 to n - 1 do
        Segtbl.update tbl ~seg ~dev:(seg mod 3) ~off:(seg * 4096) ~chain_len:(1 + (seg mod 5))
      done;
      let words () = Obj.reachable_words (Obj.repr tbl) in
      let bound = (2 * n) + 64 in
      Alcotest.(check bool)
        (Printf.sprintf "%d words <= %d" (words ()) bound)
        true
        (words () <= bound);
      let order = ref [] in
      Segtbl.lock tbl 7;
      for i = 1 to 3 do
        Sim.spawn (fun () ->
            Segtbl.lock tbl 7;
            order := i :: !order;
            Segtbl.unlock tbl 7)
      done;
      Sim.delay 1e-6;
      Alcotest.(check int) "one queue while contended" 1 (Segtbl.waiter_queues tbl);
      Segtbl.unlock tbl 7;
      Sim.delay 1e-6;
      Alcotest.(check (list int)) "handed off in arrival order" [ 3; 2; 1 ] !order;
      Alcotest.(check int) "no queue once drained" 0 (Segtbl.waiter_queues tbl);
      Alcotest.(check bool) "lock released" true (Segtbl.try_lock tbl 7);
      Segtbl.unlock tbl 7;
      Alcotest.(check bool) "still within bound" true (words () <= bound);
      let acc = ref 0 in
      let before = Gc.minor_words () in
      for i = 0 to 99_999 do
        let e = Segtbl.entry tbl (i land (n - 1)) in
        acc := !acc + Segtbl.off e + Segtbl.dev e + Segtbl.chain_len e
      done;
      let allocated = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "entry reads allocate nothing (%.0f words)" allocated)
        true (allocated < 64.);
      Alcotest.(check bool) "entries were read" true (!acc > 0))

let instant_dev () = Blockdev.create (Blockdev.instant ())

let test_swapped_out_after_recover () =
  (* Sanitized, so every swapped_out call also cross-checks the table's
     foreign-segment count against a full scan. *)
  Sim.run ~checks:true (fun () ->
      let dev = instant_dev () in
      let log ~name ~dev_id ~base = Circular_log.create ~name ~dev ~dev_id ~base ~size:(1 lsl 20) in
      let klog = log ~name:"k" ~dev_id:0 ~base:0 and vlog = log ~name:"v" ~dev_id:0 ~base:(1 lsl 20) in
      (* One swap region holds both keys and values, as in the engine. *)
      let swap = log ~name:"swap" ~dev_id:1 ~base:(2 lsl 20) in
      let config = { Store.default_config with Store.nsegments = 64 } in
      let st = Store.create ~config ~name:"swap" ~klog ~vlog () in
      Store.set_resolver st (fun _ -> swap);
      let tbl = Store.segtbl st in
      let scan () = ref_swapped_out tbl ~home_dev:(Store.home_dev st) in
      let key = Leed_workload.Workload.key_of_id in
      (* Redirect some writes to the swap logs, as the engine does under a
         bandwidth gap (§3.6). *)
      let put_swapped ids =
        List.iter (fun i -> Store.put ~target:swap st (key i) (Bytes.make 64 's')) ids
      in
      for i = 0 to 39 do
        Store.put st (key i) (Bytes.make 64 'h')
      done;
      put_swapped (List.init 20 (fun i -> 40 + i));
      Alcotest.(check bool) "some segments swapped" true (scan () <> []);
      Alcotest.(check (list int)) "after swapped writes" (scan ()) (Segtbl.swapped_out tbl);
      Store.merge_swapped_back st;
      Alcotest.(check (list int)) "after merge-back" [] (Segtbl.swapped_out tbl);
      Alcotest.(check (list int)) "merge-back emptied the scan" [] (scan ());
      put_swapped (List.init 30 (fun i -> 2 * i));
      Alcotest.(check bool) "swapped again" true (scan () <> []);
      (* Recovery forgets the table and rebuilds it from the home key log
         alone; the count behind swapped_out must follow. *)
      Store.recover st;
      Alcotest.(check (list int)) "after recover" (scan ()) (Segtbl.swapped_out tbl))

(* --- circular log --- *)

let pattern n seed = Bytes.init n (fun i -> Char.chr ((i * 7 + seed) land 0xFF))

let test_log_wrap_round_trip () =
  Sim.run (fun () ->
      let dev = instant_dev () in
      let size = 1000 in
      let log = Circular_log.create ~name:"w" ~dev ~dev_id:0 ~base:4096 ~size in
      (* Fill to 900 bytes, free them, then append 300: the entry covers
         [900, 1200) and wraps past the region's end. *)
      ignore (Circular_log.append log (pattern 900 1));
      Circular_log.advance_head log 900;
      let writes0 = (Blockdev.stats dev).Blockdev.n_writes in
      let data = pattern 300 2 in
      let loff = Circular_log.append log data in
      Alcotest.(check int) "entry offset" 900 loff;
      Alcotest.(check int) "wrapping append = two device writes" 2
        ((Blockdev.stats dev).Blockdev.n_writes - writes0);
      Alcotest.(check bool) "first part at the region's end" true
        (Bytes.equal (Bytes.sub data 0 100) (Blockdev.read dev ~off:(4096 + 900) ~len:100));
      Alcotest.(check bool) "second part at the region's start" true
        (Bytes.equal (Bytes.sub data 100 200) (Blockdev.read dev ~off:4096 ~len:200));
      let reads0 = (Blockdev.stats dev).Blockdev.n_reads in
      Alcotest.(check bool) "wrapping read round-trips" true
        (Bytes.equal data (Circular_log.read log ~loff ~len:300));
      Alcotest.(check int) "wrapping read = two device reads" 2
        ((Blockdev.stats dev).Blockdev.n_reads - reads0);
      (* Sub-ranges on either side of the wrap point and straddling it. *)
      List.iter
        (fun (o, n) ->
          Alcotest.(check bool)
            (Printf.sprintf "read [%d,%d)" (loff + o) (loff + o + n))
            true
            (Bytes.equal (Bytes.sub data o n) (Circular_log.read log ~loff:(loff + o) ~len:n)))
        [ (0, 100); (0, 99); (100, 200); (99, 2); (50, 250) ];
      (* A two-phase write-behind blob takes the same path. *)
      let loff2 = Circular_log.reserve log 650 in
      let blob = pattern 650 3 in
      Circular_log.write_reserved log ~loff:loff2 blob;
      Alcotest.(check bool) "wrapping write_reserved round-trips" true
        (Bytes.equal blob (Circular_log.read log ~loff:loff2 ~len:650)))

let test_log_read_is_caller_owned () =
  Sim.run (fun () ->
      let dev = instant_dev () in
      let log = Circular_log.create ~name:"o" ~dev ~dev_id:0 ~base:0 ~size:4096 in
      let data = pattern 512 4 in
      let loff = Circular_log.append log data in
      let reads0 = (Blockdev.stats dev).Blockdev.n_reads in
      let got = Circular_log.read log ~loff ~len:512 in
      Alcotest.(check int) "non-wrapping read = one device read" 1
        ((Blockdev.stats dev).Blockdev.n_reads - reads0);
      Bytes.fill got 0 512 'X';
      Alcotest.(check bool) "device contents untouched by the caller" true
        (Bytes.equal data (Circular_log.read log ~loff ~len:512));
      Alcotest.(check bool) "appended buffer untouched" true (Bytes.equal data (pattern 512 4)))

let () =
  Alcotest.run "leed_datapath"
    [
      ( "codec",
        [
          Alcotest.test_case "CRC-32 known answer" `Quick test_crc_known_answer;
          Alcotest.test_case "CRC-32 rejects out-of-range" `Quick test_crc_bounds;
          QCheck_alcotest.to_alcotest prop_crc_matches_bytewise;
          QCheck_alcotest.to_alcotest prop_crc_chains;
          Alcotest.test_case "hash_key golden values" `Quick test_hash_key_golden;
        ] );
      ("ring", [ QCheck_alcotest.to_alcotest prop_chain_at_matches_reference ]);
      ( "segtbl",
        [
          QCheck_alcotest.to_alcotest prop_swapped_out_matches_scan;
          QCheck_alcotest.to_alcotest prop_segtbl_matches_model;
          Alcotest.test_case "footprint: one word per entry" `Quick test_segtbl_footprint;
          Alcotest.test_case "swapped_out through recover and merge-back" `Quick
            test_swapped_out_after_recover;
        ] );
      ( "circular_log",
        [
          Alcotest.test_case "wrapping append/read round-trip" `Quick test_log_wrap_round_trip;
          Alcotest.test_case "non-wrapping read is caller-owned" `Quick
            test_log_read_is_caller_owned;
        ] );
    ]
