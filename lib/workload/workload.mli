(** YCSB-style workload generation (paper §4.1): the six mixes the paper
    runs (A, B, C, D, F, WR), uniform/Zipf/latest key distributions,
    deterministic value payloads so stores can verify reads, and
    closed-/open-loop client drivers.

    Zipfian sampling runs over a large virtual rank space mapped onto the
    real keys, so the hottest key keeps the few-percent traffic share it
    would have at the paper's 1.6 B-object scale (see DESIGN.md). *)

type op =
  | Read of string
  | Update of string * bytes
  | Insert of string * bytes
  | Read_modify_write of string * bytes

val apply : get:(string -> 'a) -> put:(string -> bytes -> unit) -> op -> unit
(** Run [op] through a system's [get] and [put]: an insert or update is a
    put, and a read-modify-write is a get followed by a put. *)

type distribution = Uniform | Zipfian of float | Latest of float

type mix = {
  label : string;
  read : float;
  update : float;
  insert : float;
  rmw : float;
  dist : distribution;
}

val default_theta : float
(** 0.99, YCSB's default skew. *)

val skew_sweep : float list
(** The Zipf skews Figures 7, 8 and 10 sweep: 0.1, 0.3, 0.5, 0.7, 0.9,
    0.95 and 0.99. Each is tabulated in [Zipf.zeta_table] at
    [virtual_ranks], so a generator at any of them skips the 10 M-term
    sum; a value added here needs its entry there (a test checks). *)

val ycsb_a : ?theta:float -> unit -> mix
(** 50% read / 50% update. *)

val ycsb_b : ?theta:float -> unit -> mix
(** 95% read / 5% update. *)

val ycsb_c : ?theta:float -> unit -> mix
(** Read-only. *)

val ycsb_d : ?theta:float -> unit -> mix
(** 95% read-latest / 5% insert. *)

val ycsb_f : ?theta:float -> unit -> mix
(** 50% read / 50% read-modify-write. *)

val ycsb_wr : ?theta:float -> unit -> mix
(** Update-only. *)

val all_ycsb : ?theta:float -> unit -> mix list

val read_write : read:float -> theta:float -> mix
val uniform_mix : read:float -> mix

(** {1 Keys and values} *)

val key_size : int
(** Fixed key width (16 B) so object sizes are predictable. *)

val key_of_id : int -> string
val id_of_key : string -> int

val value_for : id:int -> version:int -> size:int -> bytes
(** Deterministic payload embedding (id, version) for read validation. *)

val value_matches : id:int -> version:int -> bytes -> bool

val virtual_ranks : int
(** Size of the virtual Zipf rank space (10 M). *)

(** {1 Generators} *)

(** A flash-crowd overlay on any mix: between [fc_start] and
    [fc_start +. fc_duration] (simulated seconds), a fraction [fc_frac]
    of key picks is redirected uniformly into the first [fc_keys] ids —
    a sudden popularity spike on a tiny key set, the regime the
    in-network cache (DESIGN.md §15) targets. *)
type flash_crowd = {
  fc_start : float;
  fc_duration : float;
  fc_frac : float;
  fc_keys : int;
}

type gen

val generator :
  ?object_size:int -> ?flash_crowd:flash_crowd -> mix -> nkeys:int -> Leed_sim.Rng.t -> gen
(** [object_size] is the paper's headline size (256 B / 1 KB); the value
    payload is what remains after the key. [flash_crowd] overlays a
    popularity spike; outside its window the stream (and its rng draws)
    is identical to the same generator without one. *)

val value_size : gen -> int
val inserted_count : gen -> int
val current_version : gen -> int -> int
val next : gen -> op

(** Closed- and open-loop measurement drivers: every timed, fixed-count
    and Poisson load in the repository goes through these. *)
module Driver : sig
  type result = {
    ops : int;
    duration : float;
    throughput : float;
    latency : Leed_stats.Histogram.t;
    shed : int;  (** arrivals [open_loop ~window] dropped; 0 for every other driver *)
  }

  val closed : ?label:string -> workers:int -> duration:float -> (int -> unit) -> result
  (** [closed ~workers ~duration op]: worker [w] (in [0, workers)) calls
      [op w] back to back until [duration] simulated seconds have
      passed. [ops] counts the calls and [latency] records each call's
      duration. [label] names worker [w]'s process ["<label>:w<w>"] in
      {!Leed_sim.Sim.dispatch} records; without it the workers inherit
      the caller's label. *)

  val fixed : ?label:string -> workers:int -> ops:int -> (int -> unit) -> result
  (** [fixed ~workers ~ops op]: as {!closed}, but worker [w] calls
      [op w] exactly [ops] times, so [result.ops = workers * ops]
      whatever the timing. The same worker loop as {!closed}; only the
      stop test differs. *)

  val closed_loop :
    clients:int -> duration:float -> gen:gen -> execute:(op -> unit) -> unit -> result
  (** {!closed} with [clients] workers, each call executing the next op
      of [gen]. *)

  val spread : workers:int -> n:int -> (int -> unit) -> unit
  (** [spread ~workers ~n f]: [workers] concurrent workers, worker [w]
      calling [f] on each id of [[w·n/workers, (w+1)·n/workers)] in
      order; returns when all are done. Together they visit every id of
      [[0, n)] exactly once. *)

  val open_loop :
    ?drain:float ->
    ?window:int ->
    rate:float ->
    duration:float ->
    gen:gen ->
    execute:(op -> unit) ->
    unit ->
    result
  (** Poisson arrivals at [rate] for [duration] seconds, each request in
      its own process; stragglers get [drain] extra seconds and
      throughput is attributed to the issuing window only. The arrival
      times come from [Rng.split] of [gen]'s stream. With [window], an
      arrival that finds [window] requests in flight is shed: it is
      counted in [shed] and does not draw from [gen], so [ops + shed]
      is the number of arrivals once every request has finished.
      Without [window] nothing is shed. *)

  val round_robin : ('c -> op -> unit) -> 'c list -> op -> unit
  (** [round_robin execute clients] spreads an op stream over front-end
      endpoints — the bridge from a backend's per-client [execute] to
      the single closure the drivers consume. The driver is thereby
      backend-generic: any system's clients plug in. *)
end
