(** Fail-slow gray failure (figure-style experiment): GET tail latency
    under a 10× compute slowdown on one node, comparing the defended
    configuration (hedged CRRS reads, adaptive timeouts, slow-outlier
    escalation, deadline shedding) against the naive static-timeout
    baseline and the fault-free tail. *)

type point = { label : string; report : Leed_fault.Fault.Chaos.report }

val points : ?seed:int -> ?fast:bool -> unit -> point list
(** Three same-seed chaos runs: fault-free, fail-slow naive, fail-slow
    hedged — in that order. *)

val p999_ratios : point list -> (float * float) option
(** GET p99.9 of the naive and of the hedged run over the fault-free
    one's (0 when the fault-free p99.9 is 0), for the three points of
    {!points}; [None] for any other list. *)

val print : point list -> unit
(** Print the comparison table and the p99.9 degradation ratios. *)

val run : fast:bool -> unit
(** [print] the {!points}, at the quick scale when [fast]. *)
