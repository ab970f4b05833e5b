(** Runtime invariant sanitizer.

    Default-off assertion layer for the simulation substrate: event-time
    monotonicity ({!Sim}), device queue bounds ({!Leed_blockdev.Blockdev}),
    token conservation (the I/O engine) and replication chain consistency
    (the cluster) all funnel through this module.

    Enable with [Sim.run ~checks:true] or by setting [LEED_SANITIZE=1] in
    the environment. When disabled every check is a single branch, so
    instrumented hot paths stay effectively free. *)

exception Violation of string
(** Raised by a failed check. The message names the violated invariant and
    the simulation time at which it tripped. *)

val active : unit -> bool
(** True when sanitizing. Guard expensive condition computations with this
    before calling {!require}. *)

val set_enabled : bool -> unit
(** Flip the global switch. {!Sim.run} drives this; tests may too. *)

val require :
  invariant:string -> time:float -> bool -> detail:(unit -> string) -> unit
(** [require ~invariant ~time cond ~detail] raises {!Violation} when
    sanitizing is on and [cond] is false. [detail] is only forced on
    failure. No-op when sanitizing is off. *)

(** Token conservation ledger: an independent account of issued/consumed
    tokens cross-checked against the engine's own balance, enforcing
    issued = consumed + outstanding with no negative flows. Updates are
    no-ops when sanitizing is off. *)
module Tokens : sig
  type t

  val create : name:string -> t
  val issue : t -> time:float -> int -> unit
  val consume : t -> time:float -> int -> unit

  val issued : t -> int
  val consumed : t -> int
  val outstanding : t -> int

  val check_balance : t -> time:float -> expect_outstanding:int -> unit
  (** Cross-check the ledger against an externally tracked balance. *)
end
