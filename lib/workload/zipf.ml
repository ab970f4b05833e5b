(* Zipfian generator using the YCSB/Gray algorithm, plus the scrambled
   variant that decorrelates rank from key id. *)

open Leed_sim

type t = {
  n : int;
  rank1_bound : float; (* 1 + 0.5^theta: [next] returns rank 1 below it *)
  alpha : float;
  zetan : float;
  eta : float;
  rng : Rng.t;
}

let zeta_sum n theta =
  let sum = ref 0. in
  for i = 1 to n do
    sum := !sum +. (1. /. (float_of_int i ** theta))
  done;
  !sum

(* zeta_sum's own output for the (n, theta) pairs the experiments build
   over [Workload.virtual_ranks]: summing 10 M [pow] terms costs ~0.5 s
   per generator. Written as hex literals so they are exact; the test
   suite recomputes every entry with [zeta_sum] and compares the bits. *)
let zeta_table =
  [
    (10_000_000, 0.1, 0x1.0e9fecfee978fp+21);
    (10_000_000, 0.3, 0x1.bb428fbf80decp+16);
    (10_000_000, 0.5, 0x1.8b3185a0ae43bp+12);
    (10_000_000, 0.6, 0x1.89dc34f10e4a7p+10);
    (10_000_000, 0.7, 0x1.a0dd0935b5a94p+8);
    (10_000_000, 0.9, 0x1.458245bf2cb48p+5);
    (10_000_000, 0.95, 0x1.9591597067031p+4);
    (10_000_000, 0.99, 0x1.210f545fd1779p+4);
  ]

let zeta n theta =
  match List.find_opt (fun (n', theta', _) -> n' = n && Float.equal theta' theta) zeta_table with
  | Some (_, _, z) -> z
  | None -> zeta_sum n theta

let create ?(theta = 0.99) ~n rng =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta <= 0. || theta >= 1. then invalid_arg "Zipf.create: theta must be in (0,1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1. /. (1. -. theta) in
  let eta = (1. -. ((2. /. float_of_int n) ** (1. -. theta))) /. (1. -. (zeta2 /. zetan)) in
  { n; rank1_bound = 1.0 +. (0.5 ** theta); alpha; zetan; eta; rng }

(* Rank in [0, n): rank 0 is the hottest. *)
let next t =
  let u = Rng.float t.rng in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < t.rank1_bound then 1
  else
    let v = float_of_int t.n *. ((t.eta *. u) -. t.eta +. 1.0) ** t.alpha in
    min (t.n - 1) (int_of_float v)

(* FNV-1a scramble so that hot ranks are spread over the key space — the
   standard YCSB "scrambled zipfian". *)
let fnv1a x =
  let prime = 0x100000001b3L and offset = 0xcbf29ce484222325L in
  let h = ref offset in
  for shift = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical (Int64.of_int x) (shift * 8)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) prime
  done;
  Int64.to_int (Int64.shift_right_logical !h 2)

let next_scrambled t = fnv1a (next t) mod t.n
