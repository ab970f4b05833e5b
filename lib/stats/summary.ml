(* Streaming scalar summary: count / mean / variance (Welford) / extrema.

   The float accumulators live in their own all-float record, which OCaml
   stores flat, so [add] updates them in place; as float fields beside the
   int count every update would allocate a boxed float. *)

type acc = {
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sum : float;
}

type t = { mutable n : int; acc : acc }

let create () =
  { n = 0; acc = { mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity; sum = 0. } }

let add t x =
  t.n <- t.n + 1;
  let a = t.acc in
  a.sum <- a.sum +. x;
  let delta = x -. a.mean in
  a.mean <- a.mean +. (delta /. float_of_int t.n);
  a.m2 <- a.m2 +. (delta *. (x -. a.mean));
  if x < a.min_v then a.min_v <- x;
  if x > a.max_v then a.max_v <- x

let count t = t.n
let sum t = t.acc.sum
let mean t = if t.n = 0 then 0. else t.acc.mean
let variance t = if t.n < 2 then 0. else t.acc.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = if t.n = 0 then 0. else t.acc.min_v
let max_value t = if t.n = 0 then 0. else t.acc.max_v

let reset t =
  t.n <- 0;
  let a = t.acc in
  a.mean <- 0.;
  a.m2 <- 0.;
  a.min_v <- infinity;
  a.max_v <- neg_infinity;
  a.sum <- 0.
