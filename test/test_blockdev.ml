(* Tests for the simulated block devices: correctness of the byte store and
   plausibility of the timing model. *)

open Leed_sim
open Leed_blockdev

let instant () = Blockdev.create (Blockdev.instant ())

let test_write_read_roundtrip () =
  Sim.run (fun () ->
      let d = instant () in
      let data = Bytes.of_string "hello, flash!" in
      Blockdev.write_seq d ~off:4096 data;
      let got = Blockdev.read d ~off:4096 ~len:(Bytes.length data) in
      Alcotest.(check string) "roundtrip" "hello, flash!" (Bytes.to_string got))

let test_unwritten_reads_zero () =
  Sim.run (fun () ->
      let d = instant () in
      let got = Blockdev.read d ~off:123456 ~len:8 in
      Alcotest.(check string) "zeroes" (String.make 8 '\000') (Bytes.to_string got))

let test_cross_chunk_io () =
  (* Chunks are 64 KiB; write a region straddling the boundary. *)
  Sim.run (fun () ->
      let d = instant () in
      let data = Bytes.init 100_000 (fun i -> Char.chr (i mod 251)) in
      Blockdev.write_seq d ~off:65_000 data;
      let got = Blockdev.read d ~off:65_000 ~len:100_000 in
      Alcotest.(check bool) "equal" true (Bytes.equal data got))

let test_overwrite () =
  Sim.run (fun () ->
      let d = instant () in
      Blockdev.write_seq d ~off:0 (Bytes.of_string "aaaaaa");
      Blockdev.write_rand d ~off:2 (Bytes.of_string "bb");
      let got = Blockdev.read d ~off:0 ~len:6 in
      Alcotest.(check string) "patched" "aabbaa" (Bytes.to_string got))

let test_resident_bytes () =
  let chunk = 64 * 1024 in
  Sim.run (fun () ->
      let d = instant () in
      Alcotest.(check int) "fresh device" 0 (Blockdev.resident_bytes d);
      ignore (Blockdev.read d ~off:(3 * chunk) ~len:4096);
      Alcotest.(check int) "a read materialises nothing" 0 (Blockdev.resident_bytes d);
      Blockdev.write_seq d ~off:10 (Bytes.of_string "x");
      Alcotest.(check int) "one byte, one whole chunk" chunk (Blockdev.resident_bytes d);
      Blockdev.write_rand d ~off:100 (Bytes.make 1000 'y');
      Alcotest.(check int) "same chunk again" chunk (Blockdev.resident_bytes d);
      Blockdev.write_seq d ~off:(chunk - 1) (Bytes.make (chunk + 2) 'z');
      Alcotest.(check int) "a write straddling two boundaries" (3 * chunk)
        (Blockdev.resident_bytes d);
      let d' = Blockdev.reboot d in
      Alcotest.(check int) "kept across a reboot" (3 * chunk) (Blockdev.resident_bytes d'))

let test_out_of_bounds_rejected () =
  Sim.run (fun () ->
      let d = Blockdev.create (Blockdev.instant ~capacity_bytes:4096 ()) in
      (match Blockdev.read d ~off:4000 ~len:200 with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
      match Blockdev.write_seq d ~off:(-1) (Bytes.create 1) with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_read_latency_charged () =
  let t =
    Sim.run (fun () ->
        let p = { (Blockdev.dct983) with Blockdev.jitter = 0. } in
        let d = Blockdev.create p in
        let _ = Blockdev.read d ~off:0 ~len:4096 in
        Sim.now ())
  in
  (* 58 us base + 4 KiB / 3000 MB/s ≈ 59.4 us *)
  Alcotest.(check bool) "latency in [55us, 70us]" true (t > 55e-6 && t < 70e-6)

let test_read_concurrency_limits_iops () =
  (* Saturating a DCT983 with reads should yield roughly its 400 K IOPS. *)
  let iops =
    Sim.run (fun () ->
        let p = { (Blockdev.dct983) with Blockdev.jitter = 0. } in
        let d = Blockdev.create p in
        let n = ref 0 in
        let worker () =
          while Sim.now () < 0.1 do
            let _ = Blockdev.read d ~off:0 ~len:4096 in
            incr n
          done
        in
        Sim.fork_join (List.init 64 (fun _ () -> worker ()));
        float_of_int !n /. Sim.now ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "iops %.0f in [300K, 450K]" iops)
    true
    (iops > 300_000. && iops < 450_000.)

let test_seq_write_bandwidth_cap () =
  (* 64 concurrent sequential writers of 64 KiB blocks should be capped
     near seq_write_mbps (1050 MB/s). *)
  let mbps =
    Sim.run (fun () ->
        let p = { (Blockdev.dct983) with Blockdev.jitter = 0. } in
        let d = Blockdev.create p in
        let bytes = ref 0 in
        let block = Bytes.create 65536 in
        let worker i () =
          let off = ref (i * 10_000_000) in
          while Sim.now () < 0.1 do
            Blockdev.write_seq d ~off:!off block;
            off := !off + 65536;
            bytes := !bytes + 65536
          done
        in
        Sim.fork_join (List.init 16 (fun i () -> worker i ()));
        float_of_int !bytes /. Sim.now () /. 1e6)
  in
  Alcotest.(check bool)
    (Printf.sprintf "bw %.0f MB/s in [800, 1100]" mbps)
    true
    (mbps > 800. && mbps < 1100.)

let test_rand_write_slower_than_seq () =
  let run kind =
    Sim.run (fun () ->
        let p = { (Blockdev.dct983) with Blockdev.jitter = 0. } in
        let d = Blockdev.create p in
        let n = ref 0 in
        let block = Bytes.create 4096 in
        let worker () =
          while Sim.now () < 0.05 do
            (match kind with
            | `Seq -> Blockdev.write_seq d ~off:(!n * 4096 mod 1_000_000) block
            | `Rand -> Blockdev.write_rand d ~off:(!n * 7919 * 4096 mod 1_000_000) block);
            incr n
          done
        in
        Sim.fork_join (List.init 32 (fun _ () -> worker ()));
        float_of_int !n /. Sim.now ())
  in
  let seq = run `Seq and rand = run `Rand in
  Alcotest.(check bool)
    (Printf.sprintf "seq %.0f > 2x rand %.0f" seq rand)
    true (seq > 2. *. rand)

let test_sd_card_much_slower () =
  let iops profile =
    Sim.run (fun () ->
        let d = Blockdev.create { profile with Blockdev.jitter = 0. } in
        let n = ref 0 in
        let worker () =
          while Sim.now () < 0.05 do
            let _ = Blockdev.read d ~off:0 ~len:4096 in
            incr n
          done
        in
        Sim.fork_join (List.init 8 (fun _ () -> worker ()));
        float_of_int !n /. Sim.now ())
  in
  let nvme = iops Blockdev.dct983 and sd = iops Blockdev.sandisk_sd in
  Alcotest.(check bool)
    (Printf.sprintf "nvme %.0f >> sd %.0f" nvme sd)
    true
    (nvme > 20. *. sd)

let test_stats_counted () =
  Sim.run (fun () ->
      let d = instant () in
      let _ = Blockdev.read d ~off:0 ~len:100 in
      Blockdev.write_seq d ~off:0 (Bytes.create 200);
      let s = Blockdev.stats d in
      Alcotest.(check int) "reads" 1 s.Blockdev.n_reads;
      Alcotest.(check int) "writes" 1 s.Blockdev.n_writes;
      Alcotest.(check int) "bytes read" 100 s.Blockdev.bytes_read;
      Alcotest.(check int) "bytes written" 200 s.Blockdev.bytes_written)

let test_reboot_preserves_contents () =
  Sim.run (fun () ->
      let d = instant () in
      Blockdev.write_seq d ~off:0 (Bytes.of_string "durable");
      let d' = Blockdev.reboot d in
      let got = Blockdev.read d' ~off:0 ~len:7 in
      Alcotest.(check string) "survives reboot" "durable" (Bytes.to_string got);
      Alcotest.(check int) "stats reset" 1 (Blockdev.stats d').Blockdev.n_reads)

(* [read_view] must hand back exactly [read]'s bytes, wherever they live:
   inside one chunk (the chunk itself), across a 64 KiB chunk boundary
   and on never-written space (fresh copies), and after at-rest rot. It
   is the same command, so it is charged and counted like a read. *)
let view_bytes (buf, pos) len = Bytes.sub buf pos len

let test_read_view_matches_read () =
  Sim.run (fun () ->
      let d = instant () in
      let data = Bytes.init 200_000 (fun i -> Char.chr ((i * 7) mod 253)) in
      Blockdev.write_seq d ~off:10_000 data;
      let same what ~off ~len =
        let reads0 = (Blockdev.stats d).Blockdev.n_reads in
        let view = Blockdev.read_view d ~off ~len in
        Alcotest.(check int) (what ^ ": one read counted") 1
          ((Blockdev.stats d).Blockdev.n_reads - reads0);
        Alcotest.(check string) what
          (Bytes.to_string (Blockdev.read d ~off ~len))
          (Bytes.to_string (view_bytes view len));
        view
      in
      let buf, pos = same "within one chunk" ~off:70_000 ~len:4096 in
      Alcotest.(check bool) "in-chunk view is zero-copy" true
        (Bytes.length buf = 65_536 && pos = 70_000 - 65_536);
      let _, pos = same "across a chunk boundary" ~off:(131_072 - 100) ~len:512 in
      Alcotest.(check int) "straddling view is a fresh copy" 0 pos;
      let buf, _ = same "never written" ~off:(1 lsl 25) ~len:300 in
      Alcotest.(check string) "zeros" (String.make 300 '\000') (Bytes.to_string buf);
      Blockdev.flip_bit d ~off:70_100 ~bit:3;
      ignore (same "after flip_bit" ~off:70_000 ~len:4096))

let test_log_read_view_wrapping () =
  Sim.run (fun () ->
      let open Leed_core in
      let d = instant () in
      let log = Circular_log.create ~name:"w" ~dev:d ~dev_id:0 ~base:4096 ~size:1000 in
      ignore (Circular_log.append log (Bytes.make 900 'a'));
      Circular_log.advance_head log 900;
      let data = Bytes.init 300 (fun i -> Char.chr (65 + (i mod 26))) in
      let loff = Circular_log.append log data in
      List.iter
        (fun (o, n) ->
          let buf, pos = Circular_log.read_view log ~loff:(loff + o) ~len:n in
          Alcotest.(check string)
            (Printf.sprintf "view [%d,%d)" (loff + o) (loff + o + n))
            (Bytes.to_string (Circular_log.read log ~loff:(loff + o) ~len:n))
            (Bytes.sub_string buf pos n))
        [ (0, 300); (50, 100); (0, 100); (100, 200) ])

let storage_roundtrip =
  QCheck.Test.make ~name:"storage write/read roundtrip at random offsets" ~count:200
    QCheck.(pair (int_bound 500_000) (string_of_size (Gen.int_range 1 1000)))
    (fun (off, s) ->
      QCheck.assume (String.length s > 0);
      let st = Blockdev.Storage.create () in
      Blockdev.Storage.write st ~off (Bytes.of_string s);
      let got = Blockdev.Storage.read st ~off ~len:(String.length s) in
      Bytes.to_string got = s)

let storage_disjoint_writes =
  QCheck.Test.make ~name:"disjoint writes do not interfere" ~count:100
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (o1, o2) ->
      QCheck.assume (abs (o1 - o2) >= 16);
      let st = Blockdev.Storage.create () in
      Blockdev.Storage.write st ~off:o1 (Bytes.make 16 'a');
      Blockdev.Storage.write st ~off:o2 (Bytes.make 16 'b');
      let a = Blockdev.Storage.read st ~off:o2 ~len:16 in
      Bytes.to_string a = String.make 16 'b')

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_blockdev"
    [
      ( "contents",
        [
          Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "unwritten reads zero" `Quick test_unwritten_reads_zero;
          Alcotest.test_case "cross-chunk io" `Quick test_cross_chunk_io;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "resident bytes" `Quick test_resident_bytes;
          Alcotest.test_case "bounds checked" `Quick test_out_of_bounds_rejected;
          Alcotest.test_case "stats counted" `Quick test_stats_counted;
          Alcotest.test_case "reboot preserves contents" `Quick test_reboot_preserves_contents;
          Alcotest.test_case "read_view matches read" `Quick test_read_view_matches_read;
          Alcotest.test_case "wrapping log read_view matches read" `Quick
            test_log_read_view_wrapping;
        ] );
      ( "timing",
        [
          Alcotest.test_case "read latency" `Quick test_read_latency_charged;
          Alcotest.test_case "read IOPS cap" `Quick test_read_concurrency_limits_iops;
          Alcotest.test_case "seq write bandwidth cap" `Quick test_seq_write_bandwidth_cap;
          Alcotest.test_case "rand write slower than seq" `Quick test_rand_write_slower_than_seq;
          Alcotest.test_case "sd much slower than nvme" `Quick test_sd_card_much_slower;
        ] );
      qsuite "properties" [ storage_roundtrip; storage_disjoint_writes ];
    ]
