(** simrace: the simultaneous-event race detector.

    The DES substrate fires equal-time events in a deterministic but
    arbitrary order, so code whose observables depend on that order is a
    latent race: bit-identical under a fixed seed, silently wrong the
    day an unrelated edit perturbs scheduling order. The detector makes
    the ordering an explicit input — each {!target} runs once under the
    FIFO tie-break to establish a baseline digest of its invariant
    observables, then [runs] more times under {!Leed_sim.Sim.Perturbed}
    policies; any digest mismatch is a divergence, attributed by binary
    search on {!Leed_sim.Sim.Perturb_first}'s prefix limit to the first
    commuting event pair. See DESIGN.md §11 for the contract. *)

(** A named, self-contained simulation whose [run] returns a digest of
    the observables that must be invariant across equal-time event
    orderings. [expect_divergence] marks the deliberately racy fixture
    used to prove the detector detects. *)
type target = {
  name : string;
  descr : string;
  expect_divergence : bool;
  run :
    ?tiebreak:Leed_sim.Sim.tiebreak ->
    ?sched:Leed_sim.Sim.sched ->
    ?on_dispatch:(Leed_sim.Sim.dispatch -> unit) ->
    unit ->
    string;
}

val targets : ?fast:bool -> unit -> target list
(** The shipped detection surface: sharded YCSB-A/B/C on LEED, sharded
    YCSB-B on the FAWN and KVell baselines, the chaos schedule with and
    without bit rot (fixed-op workers), and the [racy-demo] fixture.
    [fast] shrinks key counts and op budgets for smoke runs. *)

val find_target : ?fast:bool -> string -> target
(** Look a target up by name. Raises [Invalid_argument] with the list
    of known names on a miss. *)

(** Where a divergence was pinned down: under perturbation seed [seed],
    perturbing the first [limit] scheduled events flips the digest while
    [limit - 1] does not, and the dispatch logs of those two runs first
    disagree at [position] — [baseline_ev] ran there in the
    baseline-prefix order, [perturbed_ev] under perturbation. Those two
    simultaneous events are the first commuting pair the observables
    illegally depend on. *)
type attribution = {
  limit : int;
  position : int;
  baseline_ev : Leed_sim.Sim.dispatch;
  perturbed_ev : Leed_sim.Sim.dispatch;
}

(** One perturbed ordering that changed the observables. [attribution]
    is [None] only when attribution was skipped or the divergence did
    not reproduce during bisection. *)
type divergence = { seed : int; digest : string; attribution : attribution option }

(** Outcome of {!check} on one target: the FIFO baseline digest, the
    number of events the baseline dispatched, and every diverging
    perturbed run. *)
type result = {
  target : string;
  descr : string;
  runs : int;
  base_digest : string;
  events : int;
  divergences : divergence list;
  expect_divergence : bool;
}

val passed : result -> bool
(** Clean targets pass with zero divergences; [expect_divergence]
    targets pass with at least one. *)

val check : ?runs:int -> ?seed:int -> ?attribute_divergences:bool -> target -> result
(** Run the detector: one FIFO baseline plus [runs] (default 8)
    perturbed runs with seeds derived from [seed] (default 1) by a
    stateless hash. Each divergence is attributed to its first
    commuting event pair unless [attribute_divergences] is [false]
    (attribution costs O(log events) extra runs per divergence). *)

val pp_result : Format.formatter -> result -> unit
(** One line per clean target; diverging targets additionally list each
    seed, digest and attributed event pair. *)
