(* YCSB-style workload generation (§4.1): the six mixes the paper runs
   (A, B, C, D, F, WR), uniform/Zipf/latest key distributions, and
   deterministic value payloads so stores can verify reads. *)

open Leed_sim

type op =
  | Read of string
  | Update of string * bytes
  | Insert of string * bytes
  | Read_modify_write of string * bytes

(* The one op -> get/put dispatch: a read-modify-write is a get then a
   put. *)
let apply ~get ~put = function
  | Read key -> ignore (get key)
  | Update (key, v) | Insert (key, v) -> put key v
  | Read_modify_write (key, v) ->
      ignore (get key);
      put key v

type distribution = Uniform | Zipfian of float | Latest of float

type mix = {
  label : string;
  read : float;
  update : float;
  insert : float;
  rmw : float;
  dist : distribution;
}

let default_theta = 0.99

(* The Zipf skews Figures 7, 8 and 10 sweep. *)
let skew_sweep = [ 0.1; 0.3; 0.5; 0.7; 0.9; 0.95; 0.99 ]

(* The six YCSB workloads of Figure 5/6. *)
let ycsb_a ?(theta = default_theta) () =
  { label = "YCSB-A"; read = 0.5; update = 0.5; insert = 0.; rmw = 0.; dist = Zipfian theta }

let ycsb_b ?(theta = default_theta) () =
  { label = "YCSB-B"; read = 0.95; update = 0.05; insert = 0.; rmw = 0.; dist = Zipfian theta }

let ycsb_c ?(theta = default_theta) () =
  { label = "YCSB-C"; read = 1.0; update = 0.; insert = 0.; rmw = 0.; dist = Zipfian theta }

let ycsb_d ?(theta = default_theta) () =
  { label = "YCSB-D"; read = 0.95; update = 0.; insert = 0.05; rmw = 0.; dist = Latest theta }

let ycsb_f ?(theta = default_theta) () =
  { label = "YCSB-F"; read = 0.5; update = 0.; insert = 0.; rmw = 0.5; dist = Zipfian theta }

let ycsb_wr ?(theta = default_theta) () =
  { label = "YCSB-WR"; read = 0.; update = 1.0; insert = 0.; rmw = 0.; dist = Zipfian theta }

let all_ycsb ?theta () =
  [ ycsb_a ?theta (); ycsb_b ?theta (); ycsb_c ?theta (); ycsb_d ?theta (); ycsb_f ?theta (); ycsb_wr ?theta () ]

let read_write ~read ~theta =
  { label = Printf.sprintf "MIX(%.0f/%.0f)" (100. *. read) (100. *. (1. -. read));
    read; update = 1. -. read; insert = 0.; rmw = 0.; dist = Zipfian theta }

let uniform_mix ~read =
  { label = Printf.sprintf "UNI(%.0fr)" (100. *. read);
    read; update = 1. -. read; insert = 0.; rmw = 0.; dist = Uniform }

(* ------------------------------------------------------------------ *)

(* Deterministic key and value material. Keys are fixed-width so object
   sizes are predictable; values embed (key id, version) so a GET can be
   validated against the last PUT. *)

let key_size = 16

(* Keys and tags are formatted by hand on the per-op path; [Printf]
   remains the reference, and the fallback for the ranges the hand
   formatters do not cover (negative numbers, keys wider than 15
   digits, tags clipped by a tiny [size]). *)

let rec ndigits n = if n < 10 then 1 else 1 + ndigits (n / 10)

(* The decimal digits of [n >= 0], right-aligned to end before [stop]. *)
let rec put_digits b stop n =
  Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then put_digits b (stop - 1) (n / 10)

let rec digits_at v stop n =
  Bytes.unsafe_get v (stop - 1) = Char.unsafe_chr (48 + (n mod 10))
  && (n < 10 || digits_at v (stop - 1) (n / 10))

let key_of_id id =
  if id < 0 || id >= 1_000_000_000_000_000 then Printf.sprintf "k%015d" id
  else begin
    let b = Bytes.make key_size '0' in
    Bytes.unsafe_set b 0 'k';
    put_digits b key_size id;
    Bytes.unsafe_to_string b
  end

let id_of_key k = int_of_string (String.sub k 1 (String.length k - 1))

let tag_of ~id ~version = Printf.sprintf "v%d:%d;" id version

(* The tag "v<id>:<version>;" of non-negative numbers: 'v' at 0, the id,
   ':' at [1 + ndigits id], the version, ';' last. *)
let tag_length ~id ~version = ndigits id + ndigits version + 3

let value_for ~id ~version ~size =
  let b = Bytes.make size '.' in
  if id >= 0 && version >= 0 && tag_length ~id ~version <= size then begin
    let di = ndigits id and n = tag_length ~id ~version in
    Bytes.unsafe_set b 0 'v';
    put_digits b (1 + di) id;
    Bytes.unsafe_set b (1 + di) ':';
    put_digits b (n - 1) version;
    Bytes.unsafe_set b (n - 1) ';'
  end
  else begin
    let tag = tag_of ~id ~version in
    Bytes.blit_string tag 0 b 0 (min (String.length tag) size)
  end;
  b

let value_matches ~id ~version v =
  if id >= 0 && version >= 0 then begin
    let di = ndigits id and n = tag_length ~id ~version in
    Bytes.length v >= n
    && Bytes.unsafe_get v 0 = 'v'
    && digits_at v (1 + di) id
    && Bytes.unsafe_get v (1 + di) = ':'
    && digits_at v (n - 1) version
    && Bytes.unsafe_get v (n - 1) = ';'
  end
  else begin
    let tag = tag_of ~id ~version in
    Bytes.length v >= String.length tag
    && String.equal (Bytes.sub_string v 0 (String.length tag)) tag
  end

(* ------------------------------------------------------------------ *)

(* Flash-crowd overlay (§15): between [fc_start] and
   [fc_start + fc_duration], a fraction [fc_frac] of key picks is
   redirected uniformly into the first [fc_keys] ids — a sudden
   popularity spike on a tiny key set, the regime in-network caching
   targets. *)
type flash_crowd = {
  fc_start : float;
  fc_duration : float;
  fc_frac : float;
  fc_keys : int;
}

type gen = {
  mix : mix;
  nkeys : int;
  value_size : int;
  rng : Rng.t;
  zipf : Zipf.t option;
  flash : flash_crowd option;
  mutable inserted : int; (* grows under YCSB-D inserts *)
  versions : int array; (* last issued version, indexed by key id *)
}

(* [object_size] is the paper's headline object size (256 B / 1 KB); the
   value payload is what remains after the fixed-width key.

   Zipfian sampling runs over a large *virtual* rank space mapped down to
   the real keys: the paper's stores hold 1.6 B objects, where Zipf-0.99
   gives the hottest key only a few percent of the traffic. Sampling over
   the scaled-down key count directly would concentrate >10% on one key
   and turn every experiment into a single-key benchmark. *)
let virtual_ranks = 10_000_000

let generator ?(object_size = 1024) ?flash_crowd mix ~nkeys rng =
  let value_size = max 1 (object_size - key_size) in
  (match flash_crowd with
  | Some fc ->
      if fc.fc_keys <= 0 || fc.fc_frac < 0. || fc.fc_frac > 1. || fc.fc_duration < 0. then
        invalid_arg "Workload.generator: malformed flash_crowd"
  | None -> ());
  let zipf =
    match mix.dist with
    | Uniform -> None
    | Zipfian theta -> Some (Zipf.create ~theta ~n:(max nkeys virtual_ranks) rng)
    | Latest theta -> Some (Zipf.create ~theta ~n:nkeys rng)
  in
  { mix; nkeys; value_size; rng = Rng.split rng; zipf; flash = flash_crowd;
    inserted = nkeys; versions = Array.make nkeys 0 }

let value_size g = g.value_size

(* Total inserts so far; the head of the YCSB-D "latest" window. *)
let inserted_count g = g.inserted

(* The crowd is live between start and start+duration. Drawing the
   redirect coin *only inside the window* keeps the baseline stream's rng
   consumption identical before and after it, so runs with and without a
   crowd share a prefix. *)
let flash_pick g =
  match g.flash with
  | Some fc
    when Sim.reached fc.fc_start
         && not (Sim.past (fc.fc_start +. fc.fc_duration))
         && Rng.float g.rng < fc.fc_frac ->
      Some (Rng.int g.rng (min fc.fc_keys g.nkeys))
  | _ -> None

let pick_id g =
  match flash_pick g with
  | Some id -> id
  | None -> (
      match g.mix.dist with
      | Uniform -> Rng.int g.rng g.nkeys
      | Zipfian _ -> (
          match g.zipf with Some z -> Zipf.next_scrambled z mod g.nkeys | None -> assert false)
      | Latest _ -> (
          (* Rank 0 = most recently inserted key. *)
          match g.zipf with
          | Some z ->
              let rank = Zipf.next z in
              let id = (g.inserted - 1 - rank) mod g.nkeys in
              if id < 0 then id + g.nkeys else id
          | None -> assert false))

(* Every id the generator issues lies in [0, nkeys). *)
let fresh_version g id =
  let v = g.versions.(id) + 1 in
  g.versions.(id) <- v;
  v

let current_version g id = if id >= 0 && id < g.nkeys then g.versions.(id) else 0

let next g =
  let r = Rng.float g.rng in
  let m = g.mix in
  if r < m.read then Read (key_of_id (pick_id g))
  else if r < m.read +. m.update then begin
    let id = pick_id g in
    Update (key_of_id id, value_for ~id ~version:(fresh_version g id) ~size:g.value_size)
  end
  else if r < m.read +. m.update +. m.insert then begin
    let id = g.inserted mod g.nkeys in
    g.inserted <- g.inserted + 1;
    Insert (key_of_id id, value_for ~id ~version:(fresh_version g id) ~size:g.value_size)
  end
  else begin
    let id = pick_id g in
    Read_modify_write (key_of_id id, value_for ~id ~version:(fresh_version g id) ~size:g.value_size)
  end

(* ------------------------------------------------------------------ *)
(* Client drivers. [execute] returns when the operation completes; its
   latency is recorded in [lat]. *)

module Driver = struct
  type result = {
    ops : int;
    duration : float;
    throughput : float;
    latency : Leed_stats.Histogram.t;
    shed : int;
  }

  (* Spread an op stream over front-end endpoints: the bridge from a
     backend's per-client [execute] to the single closure the drivers
     consume. *)
  let round_robin execute clients =
    let arr = Array.of_list clients in
    if Array.length arr = 0 then invalid_arg "Driver.round_robin: no clients";
    let i = ref 0 in
    fun op ->
      let c = arr.(!i mod Array.length arr) in
      incr i;
      execute c op

  (* The one worker loop: worker [w] calls [op w] back to back until
     [stop calls] holds, [calls] being how many calls it has made. Every
     call's latency and the call count go into the result. [closed] and
     [fixed] differ only in [stop]. *)
  let run_workers ?label ~workers ~stop op =
    let lat = Leed_stats.Histogram.create () in
    let ops = ref 0 in
    let t0 = Sim.now () in
    let worker w () =
      let calls = ref 0 in
      while not (stop !calls) do
        let start = Sim.now () in
        op w;
        Leed_stats.Histogram.record lat (Sim.now () -. start);
        incr calls;
        incr ops
      done
    in
    let name w = Option.map (fun l -> Printf.sprintf "%s:w%d" l w) label in
    Sim.fork_join_named (List.init workers (fun w -> (name w, worker w)));
    let dt = Sim.now () -. t0 in
    { ops = !ops; duration = dt; throughput = float_of_int !ops /. dt; latency = lat; shed = 0 }

  let closed ?label ~workers ~duration op =
    let stop_at = Sim.now () +. duration in
    run_workers ?label ~workers ~stop:(fun _ -> Sim.reached stop_at) op

  (* A fixed op count per worker keeps the totals independent of how
     virtual time slices the last iteration. *)
  let fixed ?label ~workers ~ops op = run_workers ?label ~workers ~stop:(fun n -> n >= ops) op

  let closed_loop ~clients ~duration ~gen ~execute () =
    closed ~workers:clients ~duration (fun _ -> execute (next gen))

  (* Worker [w] of [workers] runs [f] over ids [w·n/W, (w+1)·n/W): the
     sharded preload every experiment uses. *)
  let spread ~workers ~n f =
    Sim.fork_join
      (List.init workers (fun w () ->
           for id = w * n / workers to ((w + 1) * n / workers) - 1 do
             f id
           done))

  (* Open loop: Poisson arrivals at [rate] requests/s for [duration]
     simulated seconds; every request runs in its own process. With a
     [window], an arrival that finds that many requests in flight is
     shed (counted, and [gen] not drawn). Completion is awaited for up
     to [drain] extra seconds, so an overloaded system shows up as
     unfinished requests rather than a hung driver. *)
  let open_loop ?(drain = 2.0) ?window ~rate ~duration ~gen ~execute () =
    let lat = Leed_stats.Histogram.create () in
    let completed = ref 0 and issued = ref 0 and shed = ref 0 in
    let rng = Rng.split gen.rng in
    let t0 = Sim.now () in
    let stop_at = t0 +. duration in
    while not (Sim.reached stop_at) do
      Sim.delay (Rng.exponential rng ~mean:(1. /. rate));
      match window with
      | Some w when !issued - !completed >= w -> incr shed
      | _ ->
          let op = next gen in
          incr issued;
          Sim.spawn (fun () ->
              let start = Sim.now () in
              execute op;
              Leed_stats.Histogram.record lat (Sim.now () -. start);
              incr completed)
    done;
    (* Let stragglers finish; throughput is attributed to the issuing
       window only, so the drain must not dilute it. *)
    Sim.delay drain;
    {
      ops = !completed;
      duration;
      throughput = float_of_int !completed /. duration;
      latency = lat;
      shed = !shed;
    }
end
