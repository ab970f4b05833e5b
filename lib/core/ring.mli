(** Consistent hashing ring (paper §3.1.2).

    The key space is divided into arcs owned by virtual nodes; a key's
    replica chain is the arc owner plus the next R-1 entries on *distinct
    physical nodes* clockwise — the structure CRRS chain replication runs
    over (§3.7). Every node and client holds its own copy, refreshed by
    control-plane broadcasts; the version number backs the hop-counter
    staleness check of §3.8.1. *)

type vnode = { node : int; vidx : int }

type state = Joining | Running | Leaving

type entry = { point : int; owner : vnode; mutable vstate : state }

type t

val point_of_key : string -> int
(** Hash a key onto the ring. *)

val create : unit -> t
val copy : t -> t
val version : t -> int
val size : t -> int

val add : ?point:int -> t -> vnode -> entry
(** Insert a vnode (state JOINING: receives COPY traffic but serves no
    chains until set RUNNING). Bumps the version. *)

val remove : t -> vnode -> unit
val set_state : t -> vnode -> state -> unit
val find : t -> vnode -> entry option
val entries : t -> entry list

val chain_at : t -> r:int -> int -> entry list
(** The replica chain for a ring point: up to [r] serving entries on
    distinct physical nodes, clockwise. *)

val chain : t -> r:int -> string -> entry list
val head : t -> r:int -> string -> entry option
val tail : t -> r:int -> string -> entry option

val arc_of : t -> entry -> int * int
(** The (lo, hi] arc an entry owns: from its predecessor's point
    (exclusive) to its own (inclusive). *)

val in_arc : lo:int -> hi:int -> int -> bool
val key_in_arc : lo:int -> hi:int -> string -> bool

val nodes : t -> int list
(** Physical node ids present in the ring. *)

(** {1 Wire representation for control-plane broadcasts} *)

type snapshot = { snap_version : int; snap_entries : (int * vnode * state) list }

val snapshot : t -> snapshot
val of_snapshot : snapshot -> t

val install : t -> snapshot -> unit
(** Adopt a snapshot if it is newer than the local version (stale
    broadcasts are ignored). *)
