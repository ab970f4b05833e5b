(** The experiment registry: one [(name, run)] list shared by every
    entry point that runs a paper experiment ([bench/main.exe] and
    [leed experiment]), so the set of names and their order live in one
    place. *)

type entry = string * (fast:bool -> unit)
(** An experiment's command-line name and the function that runs it
    and prints its table or figure; [~fast] cuts its measurement windows
    (see {!Exp_common.dur}) where it has any. *)

val paper : entry list
(** The paper's evaluation artifacts in presentation order (Table 1,
    Figure 1, Table 3, Figures 5–14): the set a [bench/main.exe] run
    without experiment names regenerates. *)

val all : entry list
(** Every experiment either entry point accepts by name: {!paper}
    followed by the fail-slow gray-failure experiment ([failslow]). *)

val resolve : string list -> (entry list, string list) result
(** [resolve names] looks every name up in {!all}, keeping the order
    given: [Ok entries] when all are known, otherwise [Error unknown]
    with the unknown names in the order given. *)
