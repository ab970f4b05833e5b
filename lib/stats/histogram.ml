(* Log-scale latency histogram (HdrHistogram-style, fixed relative error).

   Values are bucketed geometrically with ratio [gamma]; percentile queries
   return the upper edge of the containing bucket, so the reported quantile
   overestimates by at most (gamma - 1).

   With the default 1 ns floor a 100 us latency lands near bucket 1,160,
   so a percentile walk from bucket 0 would spend nearly all its time on
   empty buckets. [lowest] bounds the occupied range from below and the
   walk starts there; every bucket below it is empty, so the walk stops
   at the same bucket a full scan would. *)

type t = {
  gamma : float;
  log_gamma : float;
  floor : float; (* values below [floor] land in bucket 0 *)
  mutable counts : int array;
  mutable lowest : int; (* no bucket below this is occupied; max_int when empty *)
  mutable total : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create ?(precision = 0.01) ?(floor = 1e-9) () =
  if precision <= 0. then invalid_arg "Histogram.create: precision must be > 0";
  let gamma = 1. +. precision in
  {
    gamma;
    log_gamma = log gamma;
    floor;
    counts = Array.make 1024 0;
    lowest = max_int;
    total = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
  }

let bucket_of t v =
  if v <= t.floor then 0 else 1 + int_of_float (log (v /. t.floor) /. t.log_gamma)

(* Upper edge of bucket [i]: floor * gamma^i. *)
let value_of t i = if i = 0 then t.floor else t.floor *. (t.gamma ** float_of_int i)

let record ?(count = 1) t v =
  if v < 0. then invalid_arg "Histogram.record: negative value";
  let b = bucket_of t v in
  if b >= Array.length t.counts then begin
    let counts = Array.make (max (b + 1) (2 * Array.length t.counts)) 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end;
  t.counts.(b) <- t.counts.(b) + count;
  if b < t.lowest then t.lowest <- b;
  t.total <- t.total + count;
  t.sum <- t.sum +. (v *. float_of_int count);
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total
let min_value t = if t.total = 0 then 0. else t.min_v
let max_value t = if t.total = 0 then 0. else t.max_v

(* q in [0,1]; q=0.5 is the median. The walk starts at bucket [first],
   which must have no occupied bucket below it. *)
let percentile_from t ~first q =
  if q < 0. || q > 1. then invalid_arg "Histogram.percentile: q outside [0,1]";
  if t.total = 0 then 0.
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.total)) in
    let rank = max rank 1 in
    let acc = ref 0 and result = ref t.max_v and found = ref false in
    (try
       for i = first to Array.length t.counts - 1 do
         acc := !acc + t.counts.(i);
         if !acc >= rank then begin
           result := min (value_of t i) t.max_v;
           found := true;
           raise Exit
         end
       done
     with Exit -> ());
    if !found then !result else t.max_v
  end

let percentile t q = percentile_from t ~first:t.lowest q
let percentile_scan t q = percentile_from t ~first:0 q

let median t = percentile t 0.5
let p99 t = percentile t 0.99
let p999 t = percentile t 0.999

let merge ~into src =
  (* Requires identical bucketing. *)
  if into.gamma <> src.gamma || into.floor <> src.floor then
    invalid_arg "Histogram.merge: incompatible configurations";
  if Array.length src.counts > Array.length into.counts then begin
    let counts = Array.make (Array.length src.counts) 0 in
    Array.blit into.counts 0 counts 0 (Array.length into.counts);
    into.counts <- counts
  end;
  Array.iteri (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c) src.counts;
  if src.lowest < into.lowest then into.lowest <- src.lowest;
  into.total <- into.total + src.total;
  into.sum <- into.sum +. src.sum;
  if src.total > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.lowest <- max_int;
  t.total <- 0;
  t.sum <- 0.;
  t.min_v <- infinity;
  t.max_v <- neg_infinity
