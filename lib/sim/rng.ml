(* Deterministic splittable PRNG (SplitMix64).

   Every stochastic component of the simulator draws from its own [t],
   split off a root seed, so adding a new random consumer never perturbs
   the streams seen by existing ones. *)

(* The 64-bit state lives unboxed in 8 bytes: a draw reads and writes it
   with [Bytes.get/set_int64_le], so it boxes no int64 and runs no write
   barrier. The stream is the one a mutable [int64] field would give. *)
type t = bytes

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state z =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 z;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (mix64 (next_int64 t))

(* Uniform in [0, 1). 53 significant bits. *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(* Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value is a non-negative OCaml int; modulo bias is
     negligible for bound << 2^62 and the simulator does not need
     cryptographic quality. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

(* Exponential with the given mean; used for open-loop arrival processes. *)
let exponential t ~mean =
  let u = float t in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

(* Truncated normal via Box-Muller, clamped at [lo]; used for service-time
   jitter around a mean latency. *)
let normal t ~mean ~stddev =
  let u1 = max epsilon_float (float t) in
  let u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

(* Stateless keyed hashing: mix the inputs through the same SplitMix64
   finalizer the stream generator uses. Unlike drawing from a shared [t],
   a hash depends only on its inputs — never on how many other consumers
   drew first — so decisions keyed this way are robust to event
   reordering at equal simulation instants. *)

let mix2 k x = mix64 (Int64.add (Int64.mul golden (Int64.of_int x)) k)

let hash2 k x = Int64.to_int (Int64.shift_right_logical (mix2 (mix2 (Int64.of_int k) 0x5bd1e995) x) 2)

let hash_float k a b c =
  let z = mix2 (mix2 (mix2 (mix2 (Int64.of_int k) 0x2545f491) a) b) c in
  Int64.to_float (Int64.shift_right_logical z 11) *. (1.0 /. 9007199254740992.0)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
