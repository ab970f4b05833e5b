(* In-network hot-object caching at the ToR switch (LETHE-style).

   The fabric's switch model gains a set of cache instances and a
   popularity classifier, wired in through the netsim message tap: every
   client GET crossing the switch is classified COLD (pass-through), WARM
   (served from a deterministic home instance) or HOT (sprayed
   round-robin over all instances, the load-balancing move for keys too
   popular for any single cache pipeline). The cache is transparent to
   clients — a hit is consumed at the switch and answered with an
   injected [Resp] that completes the client's pending RPC slot exactly
   like a backend reply would.

   Consistency (the DESIGN.md §15 argument, in short): the cache must
   never let the PR 9 linearizability oracle observe a stale read.
   Write-class requests (Write / Tag_write / Copy_put) evict the key and
   bump its epoch when their *request* crosses the switch and again when
   their *ack* crosses back; a GET response may populate the cache only
   if the key's epoch is unchanged since the GET's request crossing and
   no write for the key is in flight. Between a write's commit and its
   ack crossing, a stale populate is impossible (the in-flight guard);
   after the ack crossing, the eviction has already happened. A write
   whose ack is lost in the fabric keeps its key uncacheable until the
   pending entry expires ([pending_ttl], far beyond any real in-flight
   write) — conservative, never unsafe.

   Under ABD the client read path is a Tag_read quorum; the switch never
   intercepts those (a cached reply would substitute for a replica's
   phase-1 vote and break the quorum-intersection argument), so with the
   ABD protocol the cache is armed but serves nothing: classification and
   invalidation bookkeeping still run, harmlessly. *)

open Leed_sim
open Leed_netsim
module Trace = Leed_trace.Trace

type wire = (Messages.request, Messages.response) Netsim.Rpc.wire

type mode = Off | Ttl_lru

type config = {
  mode : mode;
  instances : int;
  capacity : int;
  ttl : float;
  groups : int;
  window : float;
  warm_up : int;
  warm_down : int;
  hot_up : int;
  hot_down : int;
}

let default_config =
  {
    mode = Off;
    instances = 2;
    capacity = 64;
    ttl = 0.5;
    groups = 64;
    window = 0.05;
    warm_up = 8;
    warm_down = 4;
    hot_up = 48;
    hot_down = 24;
  }

let service_us = 1.0 (* per-lookup switch service time *)
let gbps = 100. (* the instances' reply bandwidth *)
let pending_ttl = 5.0 (* how long an unanswered request record keeps its key uncacheable *)

let enabled c = { c with mode = Ttl_lru }

(* ------------------------------------------------------------------ *)
(* Hotness classification from per-hash-group GET counters, with
   promote/demote hysteresis: a group must clear [hot_up] observations in
   one window to become HOT but only falls back once a window drops below
   [hot_down] (and likewise for WARM), so a key oscillating around one
   threshold does not thrash between serving modes. Windows rotate lazily
   on observation — no background process, so an armed-but-idle cache
   costs the simulation nothing. *)

module Classifier = struct
  type klass = Cold | Warm | Hot

  let klass_to_string = function Cold -> "cold" | Warm -> "warm" | Hot -> "hot"

  type t = {
    window : float;
    warm_up : int;
    warm_down : int;
    hot_up : int;
    hot_down : int;
    counts : int array;
    klasses : klass array;
    mutable next_rotate : float;
    mutable promotes : int;
    mutable demotes : int;
    on_change : group:int -> before:klass -> after:klass -> unit;
  }

  let create ?(on_change = fun ~group:_ ~before:_ ~after:_ -> ()) ~groups ~window ~warm_up
      ~warm_down ~hot_up ~hot_down () =
    if groups <= 0 then invalid_arg "Netcache.Classifier.create: groups must be positive";
    if window <= 0. then invalid_arg "Netcache.Classifier.create: window must be positive";
    {
      window;
      warm_up;
      warm_down;
      hot_up;
      hot_down;
      counts = Array.make groups 0;
      klasses = Array.make groups Cold;
      next_rotate = Sim.now () +. window;
      promotes = 0;
      demotes = 0;
      on_change;
    }

  let rank = function Cold -> 0 | Warm -> 1 | Hot -> 2

  (* One completed window's verdict for a group: promotion needs the
     [_up] thresholds, staying only the [_down] ones. *)
  let reclass t g =
    let c = t.counts.(g) in
    let before = t.klasses.(g) in
    let after =
      match before with
      | Cold -> if c >= t.hot_up then Hot else if c >= t.warm_up then Warm else Cold
      | Warm ->
          if c >= t.hot_up then Hot else if c < t.warm_down then Cold else Warm
      | Hot ->
          if c >= t.hot_down then Hot else if c >= t.warm_down then Warm else Cold
    in
    if after <> before then begin
      if rank after > rank before then t.promotes <- t.promotes + 1
      else t.demotes <- t.demotes + 1;
      t.klasses.(g) <- after;
      t.on_change ~group:g ~before ~after
    end;
    t.counts.(g) <- 0

  let rotate_if_due t =
    while Sim.reached t.next_rotate do
      for g = 0 to Array.length t.counts - 1 do
        reclass t g
      done;
      t.next_rotate <- t.next_rotate +. t.window
    done

  (* Count one GET for [group] and return the group's current class. *)
  let observe t group =
    rotate_if_due t;
    t.counts.(group) <- t.counts.(group) + 1;
    t.klasses.(group)

  let klass t group =
    rotate_if_due t;
    t.klasses.(group)

  let promotes t = t.promotes
  let demotes t = t.demotes

  let hot_groups t =
    Array.fold_left (fun acc k -> if k = Hot then acc + 1 else acc) 0 t.klasses
end

(* ------------------------------------------------------------------ *)

type entry = {
  mutable e_value : bytes;
  mutable e_tokens : int; (* flow-control piggyback snooped at populate *)
  mutable e_expires : float;
  mutable e_tick : int; (* unique, monotonic: the LRU ordering key *)
}

type instance = {
  ix : int;
  tbl : (string, entry) Hashtbl.t;
  res : Sim.Resource.t; (* the instance's single lookup pipeline *)
  ep : wire Netsim.endpoint; (* source endpoint of injected replies *)
}

(* Per-key invalidation state. [epoch] counts write-class switch
   crossings (request and ack alike); [writers] is the number of write
   requests seen but not yet acked. Entries are never removed — the
   epoch's monotonicity is what makes stale pending-GET records inert. *)
type kmeta = { mutable epoch : int; mutable writers : int }

(* A request the cache let through, awaiting its response: a GET to
   populate from, or a write-class request whose key stays uncacheable
   until its ack crosses back. *)
type pending = Get_sent of { key : string; epoch : int } | Write_sent of string

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  sprays : int;
  populates : int;
  evictions : int;
  expirations : int;
  promotes : int;
  demotes : int;
  hot_groups : int;
  resident : int;
}

type t = {
  cfg : config;
  fab : wire Netsim.fabric;
  cls : Classifier.t;
  insts : instance array;
  track : Trace.track;
  keymeta : (string, kmeta) Hashtbl.t;
  (* keyed by (requester endpoint id, req id) — request ids are
     per-endpoint and never reused, so the pair is unique for the
     fabric's lifetime *)
  pending : (int * int, pending) Hashtbl.t;
  expiry : ((int * int) * float) Queue.t; (* FIFO: every record has the same TTL *)
  mutable rr : int; (* round-robin spray cursor *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable sprays : int;
  mutable populates : int;
  mutable evictions : int;
  mutable expirations : int;
}

let group_of t key = (Codec.hash_key key land max_int) mod t.cfg.groups

(* The WARM home instance: a different mix of the same hash, so group and
   instance choices are independent. *)
let home_of t key = (Codec.hash_key key lsr 7) mod Array.length t.insts

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* --- eviction and invalidation --- *)

(* Remove [key] from every instance. Counted as one invalidation event if
   anything was actually resident. *)
let evict_key t key =
  let removed = ref false in
  Array.iter
    (fun inst ->
      if Hashtbl.mem inst.tbl key then begin
        Hashtbl.remove inst.tbl key;
        removed := true
      end)
    t.insts;
  if !removed then begin
    t.invalidations <- t.invalidations + 1;
    if Trace.on () then
      Trace.instant ~track:t.track ~cat:"cache" "cache.invalidate"
        ~args:[ ("key", Trace.Str key) ]
  end

let kmeta_of t key =
  match Hashtbl.find_opt t.keymeta key with
  | Some m -> m
  | None ->
      let m = { epoch = 0; writers = 0 } in
      Hashtbl.add t.keymeta key m;
      m

let bump_epoch m = m.epoch <- m.epoch + 1

(* A write-class request is over (acked, nacked or expired): drop its
   in-flight guard, and evict and bump the epoch once more. *)
let release_write t key =
  let m = kmeta_of t key in
  if m.writers > 0 then m.writers <- m.writers - 1;
  bump_epoch m;
  evict_key t key

(* Expire pending records whose response never crossed back (lost in the
   fabric or the responder died). A lost write ack is the dangerous case:
   its key stays uncacheable until here, and the expiry itself evicts and
   bumps the epoch once more — conservative, never unsafe. *)
let rec gc t =
  match Queue.peek_opt t.expiry with
  | Some (_, expires) when Sim.past expires ->
      let slot, _ = Queue.pop t.expiry in
      (match Hashtbl.find_opt t.pending slot with
      | None -> ()
      | Some p -> (
          Hashtbl.remove t.pending slot;
          match p with Write_sent key -> release_write t key | Get_sent _ -> ()));
      gc t
  | _ -> ()

let expect t slot p =
  Hashtbl.replace t.pending slot p;
  Queue.push (slot, Sim.now () +. pending_ttl) t.expiry

(* --- the LRU store --- *)

(* Deterministic eviction: the victim is the unique entry with the
   smallest touch tick. Capacities are small (tens of objects), so the
   linear scan is cheaper than a linked structure and trivially
   deterministic — ticks are globally unique. *)
let insert t inst key value tokens =
  match Hashtbl.find_opt inst.tbl key with
  | Some e ->
      e.e_value <- value;
      e.e_tokens <- tokens;
      e.e_expires <- Sim.now () +. t.cfg.ttl;
      e.e_tick <- next_tick t
  | None ->
      if Hashtbl.length inst.tbl >= t.cfg.capacity then begin
        let victim =
          (* simlint: allow hashtbl-order — min over globally unique ticks; order-insensitive *)
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, best) when best.e_tick <= e.e_tick -> acc
              | _ -> Some (k, e))
            inst.tbl None
        in
        match victim with
        | Some (vk, _) ->
            Hashtbl.remove inst.tbl vk;
            t.evictions <- t.evictions + 1
        | None -> ()
      end;
      Hashtbl.add inst.tbl key
        { e_value = value; e_tokens = tokens; e_expires = Sim.now () +. t.cfg.ttl; e_tick = next_tick t }

(* --- the serve path --- *)

(* A hit: consume the GET at the switch and answer from the instance.
   The reply completes the client's pending RPC slot exactly like a
   backend response; the piggybacked token count is the last one snooped
   for this key (stale flow-control hints only reshape scheduling, never
   correctness). The instance's single-pipeline resource is what makes
   HOT-spraying measurable: one saturated instance queues, several
   sprayed ones don't. *)
let serve t inst ~requester ~req_id (e : entry) =
  let value = Bytes.copy e.e_value in
  let resp = Messages.Value { value = Some value; tokens = e.e_tokens } in
  let service = Sim.us service_us in
  Sim.spawn ~label:(Netsim.name inst.ep) (fun () ->
      Sim.Resource.with_ inst.res (fun () -> Sim.delay service);
      Netsim.inject t.fab ~src:inst.ep ~dst:requester (Netsim.Rpc.Resp (req_id, resp)))

(* --- tap handlers --- *)

let on_get t (env : wire Netsim.envelope) req_id key =
  let g = group_of t key in
  let klass = Classifier.observe t.cls g in
  match klass with
  | Classifier.Cold -> Netsim.Forward
  | Classifier.Warm | Classifier.Hot ->
      let inst =
        match klass with
        | Classifier.Hot ->
            t.sprays <- t.sprays + 1;
            let i = t.insts.(t.rr mod Array.length t.insts) in
            t.rr <- t.rr + 1;
            i
        | _ -> t.insts.(home_of t key)
      in
      let miss () =
        t.misses <- t.misses + 1;
        if Trace.on () then
          Trace.instant ~track:t.track ~cat:"cache" "cache.miss"
            ~args:[ ("key", Trace.Str key); ("class", Trace.Str (Classifier.klass_to_string klass)) ];
        expect t (Netsim.id env.Netsim.src, req_id)
          (Get_sent { key; epoch = (kmeta_of t key).epoch });
        Netsim.Forward
      in
      (match Hashtbl.find_opt inst.tbl key with
      | Some e when not (Sim.past e.e_expires) ->
          t.hits <- t.hits + 1;
          if Trace.on () then
            Trace.instant ~track:t.track ~cat:"cache" "cache.hit"
              ~args:
                [ ("key", Trace.Str key); ("class", Trace.Str (Classifier.klass_to_string klass)) ];
          serve t inst ~requester:env.Netsim.src ~req_id e;
          Netsim.Consume
      | Some _ ->
          (* resident but past its TTL: drop and treat as a miss *)
          Hashtbl.remove inst.tbl key;
          t.expirations <- t.expirations + 1;
          miss ()
      | None -> miss ())

let on_write_req t (env : wire Netsim.envelope) req_id key =
  let m = kmeta_of t key in
  bump_epoch m;
  evict_key t key;
  m.writers <- m.writers + 1;
  expect t (Netsim.id env.Netsim.src, req_id) (Write_sent key)

let populate t key value tokens =
  match Classifier.klass t.cls (group_of t key) with
  | Classifier.Cold -> ()
  | Classifier.Warm ->
      t.populates <- t.populates + 1;
      insert t t.insts.(home_of t key) key (Bytes.copy value) tokens
  | Classifier.Hot ->
      (* HOT keys are populated everywhere, so the round-robin spray hits
         whichever instance it lands on. *)
      t.populates <- t.populates + 1;
      let v = Bytes.copy value in
      Array.iter (fun inst -> insert t inst key v tokens) t.insts

let on_resp t (env : wire Netsim.envelope) req_id resp =
  let slot = (Netsim.id env.Netsim.dst, req_id) in
  match Hashtbl.find_opt t.pending slot with
  | None -> ()
  | Some p -> (
      Hashtbl.remove t.pending slot;
      match (p, resp) with
      | Write_sent key, _ ->
          (* The write's ack is crossing back: the write is about to
             complete at its issuer, so the value it installed is
             committed — evict once more and release the in-flight guard.
             Nacks get the same conservative treatment. *)
          release_write t key
      | Get_sent { key; epoch }, Messages.Value { value = Some v; tokens } ->
          (* Populate only if nothing write-shaped crossed the switch
             since the GET's request did, and nothing is in flight: the
             returned value is then the key's latest committed value for
             the whole request interval. *)
          let m = kmeta_of t key in
          if m.epoch = epoch && m.writers = 0 then populate t key v tokens
      | Get_sent _, _ -> ())

let tap t (env : wire Netsim.envelope) =
  gc t;
  match env.Netsim.payload with
  | Netsim.Rpc.Req (id, Messages.Get { key; shipped = false; _ }) ->
      (* a client-issued read; shipped GETs are CRRS tail forwards and
         pass through untouched *)
      on_get t env id key
  | Netsim.Rpc.Req
      ( id,
        ( Messages.Write { key; _ }
        | Messages.Tag_write { key; _ }
        | Messages.Copy_put { key; _ } ) ) ->
      on_write_req t env id key;
      Netsim.Forward
  | Netsim.Rpc.Resp (id, r) ->
      on_resp t env id r;
      Netsim.Forward
  | _ -> Netsim.Forward

let attach ?(config = enabled default_config) fab =
  if config.instances <= 0 then invalid_arg "Netcache.attach: instances must be positive";
  if config.capacity <= 0 then invalid_arg "Netcache.attach: capacity must be positive";
  if config.ttl <= 0. then invalid_arg "Netcache.attach: ttl must be positive";
  let track = Trace.new_track "cache" in
  let insts =
    Array.init config.instances (fun ix ->
        {
          ix;
          tbl = Hashtbl.create (4 * config.capacity);
          res = Sim.Resource.create ~name:(Printf.sprintf "cache%d" ix) ~capacity:1 ();
          ep = Netsim.endpoint fab ~name:(Printf.sprintf "switch.cache%d" ix) ~gbps;
        })
  in
  let t =
    {
      cfg = config;
      fab;
      cls =
        Classifier.create
          ~on_change:(fun ~group ~before ~after ->
            if Trace.on () then
              Trace.instant ~track ~cat:"cache"
                (if Classifier.rank after > Classifier.rank before then "cache.promote"
                 else "cache.demote")
                ~args:
                  [
                    ("group", Trace.Int group);
                    ("from", Trace.Str (Classifier.klass_to_string before));
                    ("to", Trace.Str (Classifier.klass_to_string after));
                  ])
          ~groups:config.groups ~window:config.window ~warm_up:config.warm_up
          ~warm_down:config.warm_down ~hot_up:config.hot_up ~hot_down:config.hot_down ();
      insts;
      track;
      keymeta = Hashtbl.create 1024;
      pending = Hashtbl.create 256;
      expiry = Queue.create ();
      rr = 0;
      tick = 0;
      hits = 0;
      misses = 0;
      invalidations = 0;
      sprays = 0;
      populates = 0;
      evictions = 0;
      expirations = 0;
    }
  in
  Netsim.set_tap fab (tap t);
  t

let resident t =
  Array.fold_left (fun acc inst -> acc + Hashtbl.length inst.tbl) 0 t.insts

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    sprays = t.sprays;
    populates = t.populates;
    evictions = t.evictions;
    expirations = t.expirations;
    promotes = Classifier.promotes t.cls;
    demotes = Classifier.demotes t.cls;
    hot_groups = Classifier.hot_groups t.cls;
    resident = resident t;
  }

(* A deterministic fingerprint of the cache's observable state: counters
   plus the sorted resident key set (with per-entry ticks). Two same-seed
   runs must produce identical digests — the eviction-determinism test's
   oracle. *)
let digest t =
  let b = Buffer.create 256 in
  let s = stats t in
  Printf.bprintf b "h%d m%d i%d s%d p%d e%d x%d pr%d de%d;" s.hits s.misses s.invalidations
    s.sprays s.populates s.evictions s.expirations s.promotes s.demotes;
  Array.iter
    (fun inst ->
      (* simlint: allow hashtbl-order — bindings are sorted before use *)
      let keys = Hashtbl.fold (fun k e acc -> (k, e.e_tick) :: acc) inst.tbl [] in
      let keys = List.sort compare keys in
      Printf.bprintf b "|%d:" inst.ix;
      List.iter (fun (k, tick) -> Printf.bprintf b "%s@%d;" k tick) keys)
    t.insts;
  Digest.to_hex (Digest.string (Buffer.contents b))
