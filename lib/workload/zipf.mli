(** Zipfian rank generator (the YCSB/Gray algorithm).

    Rank 0 is the hottest; [next_scrambled] applies the standard FNV
    scramble so popularity is decorrelated from key id. *)

type t

val zeta : int -> float -> float
(** [zeta n theta] is the generalised harmonic number
    [sum_{i=1..n} 1 / i^theta], the normaliser [create] needs.

    Summing it costs one [pow] per rank, about 0.5 s at the 10 M virtual
    ranks of [Workload.virtual_ranks], so the pairs the experiments build
    there are tabulated ([zeta_table]): when [n] and [theta] both equal an
    entry exactly ([=] on [n], [Float.equal] on [theta]), the entry is
    returned. Every other pair falls through to [zeta_sum]. An entry is
    [zeta_sum]'s own output, so the result is the same bits either way.

    To add an entry, append [(n, theta, z)] to [zeta_table] in zipf.ml
    with [z] printed by [Printf.printf "%h" (zeta_sum n theta)]; the
    Zipf tests recompute every entry and print that literal on a
    mismatch. *)

val zeta_sum : int -> float -> float
(** The reference loop behind [zeta]: [n] [pow] terms summed from rank 1
    up. Exposed for tests. *)

val zeta_table : (int * float * float) list
(** The tabulated [(n, theta, zeta_sum n theta)] triples. Exposed for
    tests. *)

val create : ?theta:float -> n:int -> Leed_sim.Rng.t -> t
(** [theta] in (0, 1), default 0.99 (YCSB's default skew). *)

val next : t -> int
(** A rank in [0, n); rank 0 is most popular. *)

val next_scrambled : t -> int
(** The rank pushed through FNV-1a, modulo n. *)
