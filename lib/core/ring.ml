(* Consistent hashing ring (§3.1.2): the whole key space is divided into
   arcs owned by virtual nodes; a key's replica chain is the arc owner plus
   the next R-1 *distinct physical nodes* clockwise — the structure chain
   replication runs over (§3.7).

   The ring is a small immutable-ish sorted array rebuilt on membership
   change; lookups are binary search. Every node and client holds its own
   copy, refreshed by control-plane broadcasts, and a version number lets
   the hop-counter check (§3.8.1) detect stale views. *)

type vnode = { node : int; vidx : int }

type state = Joining | Running | Leaving

type entry = { point : int; owner : vnode; mutable vstate : state }

type t = { mutable entries : entry array; mutable version : int }

let space = 1 lsl 61

let point_of_key key = Codec.hash_key key mod space

(* Deterministic placement for a vnode id (used when no explicit point is
   chosen): hash of "node:vidx". *)
let default_point { node; vidx } = Codec.hash_key (Printf.sprintf "vn-%d-%d" node vidx) mod space

let create () = { entries = [||]; version = 0 }

let copy t = { entries = Array.map (fun e -> { e with point = e.point }) t.entries; version = t.version }

let version t = t.version
let size t = Array.length t.entries

let sort_entries arr =
  Array.sort (fun a b -> compare (a.point, a.owner) (b.point, b.owner)) arr;
  arr

let add ?point t owner =
  let point = match point with Some p -> p | None -> default_point owner in
  let e = { point; owner; vstate = Joining } in
  t.entries <- sort_entries (Array.append t.entries [| e |]);
  t.version <- t.version + 1;
  e

let remove t owner =
  t.entries <- Array.of_list (List.filter (fun e -> e.owner <> owner) (Array.to_list t.entries));
  t.version <- t.version + 1

let set_state t owner state =
  Array.iter (fun e -> if e.owner = owner then e.vstate <- state) t.entries;
  t.version <- t.version + 1

let find t owner = Array.to_list t.entries |> List.find_opt (fun e -> e.owner = owner)

let entries t = Array.to_list t.entries

(* Index of the first entry whose point is >= p (clockwise successor),
   wrapping to 0. *)
let successor_index t p =
  let n = Array.length t.entries in
  if n = 0 then invalid_arg "Ring.successor_index: empty ring";
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.entries.(mid).point < p then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

(* Serving entries: those a client may address (Running, or Leaving during
   drain); Joining vnodes receive COPY traffic only. *)
let serving e = match e.vstate with Running -> true | Joining | Leaving -> false

(* The replica chain for a key: walk clockwise from the owning arc,
   collecting entries on distinct physical nodes. Joining vnodes are
   skipped — they join chains only once RUNNING. This runs several times
   per request, so distinctness is checked against the (at most r) entries
   picked so far: the chain itself is the only allocation. *)
let rec picked_node node = function
  | [] -> false
  | e :: rest -> e.owner.node = node || picked_node node rest

let chain_at t ~r p =
  let n = Array.length t.entries in
  if n = 0 then []
  else begin
    let start = successor_index t p in
    let picked = ref [] and npicked = ref 0 and i = ref 0 in
    while !npicked < r && !i < n do
      let e = t.entries.((start + !i) mod n) in
      if serving e && not (picked_node e.owner.node !picked) then begin
        picked := e :: !picked;
        incr npicked
      end;
      incr i
    done;
    List.rev !picked
  end

let chain t ~r key = chain_at t ~r (point_of_key key)

let head t ~r key = match chain t ~r key with [] -> None | e :: _ -> Some e
let tail t ~r key = match List.rev (chain t ~r key) with [] -> None | e :: _ -> Some e

(* The arc (lo, hi] owned by an entry: from its predecessor's point
   (exclusive) to its own (inclusive). *)
let arc_of t (e : entry) =
  let n = Array.length t.entries in
  let idx = ref (-1) in
  Array.iteri (fun i e' -> if e' == e then idx := i) t.entries;
  if !idx < 0 then invalid_arg "Ring.arc_of: entry not in ring";
  let pred = t.entries.((!idx + n - 1) mod n) in
  (pred.point, e.point)

(* Does point p fall in the (lo, hi] arc, modulo wrap-around? A single-entry
   ring owns everything. *)
let in_arc ~lo ~hi p =
  if lo = hi then true else if lo < hi then p > lo && p <= hi else p > lo || p <= hi

let key_in_arc ~lo ~hi key = in_arc ~lo ~hi (point_of_key key)

(* All serving physical nodes present in the ring. *)
let nodes t =
  let tbl = Hashtbl.create 8 in
  Array.iter (fun e -> Hashtbl.replace tbl e.owner.node ()) t.entries;
  (* simlint: allow hashtbl-order — bindings are sorted before use *)
  Hashtbl.fold (fun n () acc -> n :: acc) tbl [] |> List.sort compare

(* Wire representation for control-plane broadcasts. *)
type snapshot = { snap_version : int; snap_entries : (int * vnode * state) list }

let snapshot t =
  { snap_version = t.version; snap_entries = List.map (fun e -> (e.point, e.owner, e.vstate)) (entries t) }

let of_snapshot s =
  {
    entries =
      sort_entries
        (Array.of_list (List.map (fun (point, owner, vstate) -> { point; owner; vstate }) s.snap_entries));
    version = s.snap_version;
  }

let install t s =
  if s.snap_version > t.version then begin
    let fresh = of_snapshot s in
    t.entries <- fresh.entries;
    t.version <- fresh.version
  end
