(* Host-speed calibration.

   The benchmark runs on shared hosts whose other tenants slow every
   process on the machine by up to 60%, for seconds to minutes at a
   time, so a raw wall time says as much about the neighbours as about
   the program. A slice times a fixed amount of work shaped like the
   simulator's inner loop: replace the minimum of a binary heap of
   pending events, then a random read-modify-write and a random 128-byte
   read in a 64 MiB arena, which a shared last-level cache holds only
   while the neighbours leave it alone. Slices spread over a
   measured stretch of the program say how fast the host ran during it,
   and [scale] turns a wall time into the time the reference host would
   have taken. The kernel is self-contained and allocates nothing on the
   OCaml heap, so neither a change to the program nor the size of its
   heap changes the kernel's work. *)

let pending = 4096
let arena_words = 8 * 1024 * 1024
let line = 16

(* Heap operations per slice. *)
let events = 20_000

(* Seconds one slice takes on the reference host: 2 vCPUs of an Intel
   Xeon VM in a quiet period. *)
let reference_s = 0.006

type t = {
  at : int array;  (** pending events: a binary heap keyed on [at] *)
  id : int array;
  arena : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** allocated with malloc, outside the OCaml heap *)
  mutable rng : int;
  mutable sum : int;  (** consumes the arena reads, so none is dead code *)
  mutable slices : int;  (** slices run so far *)
  mutable seconds : float;  (** their wall time *)
}

let create () =
  let arena = Bigarray.Array1.create Bigarray.int Bigarray.c_layout arena_words in
  Bigarray.Array1.fill arena 1;
  {
    at = Array.init pending Fun.id;
    id = Array.init pending (fun i -> i * 7919);
    arena;
    rng = 0x2545F4914F6CDD1D;
    sum = 0;
    slices = 0;
    seconds = 0.;
  }

let next t =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x;
  x land max_int

(* Sift the event [(at, id)] down from heap slot [i]; [replace_min t at
   id 0] replaces the minimum. A top-level function, so that no closure
   is allocated per call. *)
let rec replace_min t at id i =
  let l = (2 * i) + 1 in
  if l >= pending then begin
    t.at.(i) <- at;
    t.id.(i) <- id
  end
  else begin
    let c = if l + 1 < pending && t.at.(l + 1) < t.at.(l) then l + 1 else l in
    if t.at.(c) < at then begin
      t.at.(i) <- t.at.(c);
      t.id.(i) <- t.id.(c);
      replace_min t at id c
    end
    else begin
      t.at.(i) <- at;
      t.id.(i) <- id
    end
  end

(* One slice, added to the running totals. *)
let slice t =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to events do
    let now = t.at.(0) and id = t.id.(0) in
    let slot = id land (arena_words - 1) in
    Bigarray.Array1.unsafe_set t.arena slot (Bigarray.Array1.unsafe_get t.arena slot + 1);
    let src = next t land (arena_words - 1) land lnot (line - 1) in
    let acc = ref 0 in
    for k = 0 to line - 1 do
      acc := !acc + Bigarray.Array1.unsafe_get t.arena (src + k)
    done;
    t.sum <- t.sum + !acc;
    let r = next t in
    replace_min t (now + 1 + (r land 1023)) r 0
  done;
  t.slices <- t.slices + 1;
  t.seconds <- t.seconds +. (Unix.gettimeofday () -. t0)

let run t n =
  for _ = 1 to n do
    slice t
  done

(* The running totals at some instant. *)
type mark = { m_slices : int; m_seconds : float }

let mark t = { m_slices = t.slices; m_seconds = t.seconds }

(* Wall seconds spent in slices since [m]. *)
let since t m = t.seconds -. m.m_seconds

(* [wall_s] as the reference host would have taken it, judged by the
   slices run since [m]. *)
let scale t m wall_s =
  let n = t.slices - m.m_slices in
  if n = 0 then invalid_arg "Calib.scale: no slice since the mark";
  wall_s *. reference_s *. float_of_int n /. since t m
