(* simrace: the simultaneous-event race detector.

   The DES substrate fires equal-time events in a deterministic but
   arbitrary order (FIFO scheduling order by default). Any code whose
   observables depend on that order — two processes mutating shared
   state at the same instant, a shared RNG stream consumed in dispatch
   order — is a race: same-seed runs stay bit-identical, silently, until
   an unrelated edit perturbs the scheduling order and the "deterministic"
   simulation changes its answer.

   The detector makes the ordering an explicit input: each registered
   target runs once under FIFO to establish a baseline digest of its
   invariant observables, then K more times under [Sim.Perturbed seed]
   policies that reorder equal-time events by a seeded stateless hash.
   Any digest mismatch is a divergence; it is then attributed by binary
   search on [Sim.Perturb_first]'s prefix limit — the largest perturbed
   prefix that still reproduces the baseline, plus one more event, flips
   the outcome — and the dispatch logs of the two adjacent runs name the
   first commuting event pair. *)

open Leed_sim
open Leed_workload
open Leed_core
open Leed_fault
module E = Leed_experiments.Exp_common

(* ------------------------------------------------------------------ *)
(* Targets *)

type target = {
  name : string;
  descr : string;
  expect_divergence : bool;
  run :
    ?tiebreak:Sim.tiebreak ->
    ?sched:Sim.sched ->
    ?on_dispatch:(Sim.dispatch -> unit) ->
    unit ->
    string;
}

let digest_fields fields = Digest.to_hex (Digest.string (String.concat "|" fields))

(* The "vID:VER;" tag [Workload.value_for] embeds — the part of a stored
   value that identifies which logical write survived. *)
let value_tag v =
  match Bytes.index_opt v ';' with
  | Some i -> Bytes.sub_string v 0 (i + 1)
  | None -> "?"

(* Remap [op]'s key into worker [w]'s residue class of the keyspace:
   worker [w] of [workers] owns the ids congruent to [w] mod [workers]
   (the generator's [nkeys] must be a multiple of [workers], so remapped
   ids stay in range). *)
let shard_op ~workers w op =
  let shard_key k = Workload.key_of_id (((Workload.id_of_key k / workers) * workers) + w) in
  match op with
  | Workload.Read k -> Workload.Read (shard_key k)
  | Workload.Update (k, v) -> Workload.Update (shard_key k, v)
  | Workload.Insert (k, v) -> Workload.Insert (shard_key k, v)
  | Workload.Read_modify_write (k, v) -> Workload.Read_modify_write (shard_key k, v)

(* A sharded fixed-op YCSB run on one backend. Each choice removes a
   dependence on equal-time dispatch order: per-worker generators mean
   no shared stream whose draws depend on which simultaneous worker
   resumed first; fixed op counts ([Workload.Driver.fixed]) mean totals
   don't depend on how virtual time sliced the last iteration; disjoint
   write sets mean the final value of every key is the owning worker's
   last update in its own program order. The final KV state is then a
   tie-break-invariant observable; the digest covers it plus the op and
   object totals. *)
let ycsb_target ~fast ~backend ~mixname mk_mix =
  let workers = 4 in
  let nkeys = if fast then 256 else 1024 in
  let ops = if fast then 80 else 300 in
  let object_size = 256 in
  let run ?tiebreak ?sched ?on_dispatch () =
    Sim.run ?tiebreak ?sched ?on_dispatch (fun () ->
        let setup = E.setup_of_name ~nclients:workers backend in
        let value_size = max 1 (object_size - Workload.key_size) in
        E.preload setup ~nkeys ~value_size;
        let clients = Array.of_list setup.E.clients in
        let gens =
          Array.init workers (fun w ->
              Workload.generator ~object_size (mk_mix ()) ~nkeys (Rng.create (0xACE0 + w)))
        in
        let r =
          Workload.Driver.fixed ~label:"load" ~workers ~ops (fun w ->
              Backend.execute
                clients.(w mod Array.length clients)
                (shard_op ~workers w (Workload.next gens.(w))))
        in
        let c = clients.(0) in
        let buf = Buffer.create (nkeys * 12) in
        for id = 0 to nkeys - 1 do
          match Backend.get c (Workload.key_of_id id) with
          | Some v ->
              Buffer.add_string buf (string_of_int id);
              Buffer.add_char buf '=';
              Buffer.add_string buf (value_tag v)
          | None ->
              Buffer.add_string buf (string_of_int id);
              Buffer.add_string buf "=miss;"
        done;
        digest_fields
          [
            Buffer.contents buf;
            string_of_int r.Workload.Driver.ops;
            string_of_int (Backend.total_objects setup.E.backend);
          ])
  in
  {
    name = Printf.sprintf "ycsb-%s-%s" mixname backend;
    descr = Printf.sprintf "sharded YCSB-%s on %s" (String.uppercase_ascii mixname) backend;
    expect_divergence = false;
    run;
  }

(* A chaos run (faults + closed-loop load) in fixed-op mode; the digest
   is [Fault.Chaos.report.state_digest] — final per-key state plus the
   acknowledged-write ledger. *)
let chaos_target ~fast ~bit_rot =
  let cfg =
    {
      Fault.Chaos.fast_config with
      Fault.Chaos.duration = (if fast then 2.0 else 3.0);
      ops_per_worker = Some (if fast then 150 else 400);
      bit_rot;
      seed = (if bit_rot then 7 else 42);
    }
  in
  let run ?tiebreak ?sched ?on_dispatch () =
    (Fault.Chaos.run ?tiebreak ?sched ?on_dispatch cfg).Fault.Chaos.state_digest
  in
  {
    name = (if bit_rot then "chaos-bitrot" else "chaos");
    descr =
      (if bit_rot then "chaos schedule with bit rot + scrubbing, fixed-op workers"
       else "chaos schedule, fixed-op workers");
    expect_divergence = false;
    run;
  }

(* The deliberately racy fixture: two writers, same key, same instant,
   through the real LEED stack. Which value survives depends on which
   spawn event dispatches first, so perturbation must flip the digest
   and attribution must name the two writer events. *)
let racy_demo =
  let run ?tiebreak ?sched ?on_dispatch () =
    Sim.run ?tiebreak ?sched ?on_dispatch (fun () ->
        let setup = E.setup_of_name ~nclients:2 "leed" in
        let clients = Array.of_list setup.E.clients in
        let key = Workload.key_of_id 0 in
        Backend.put clients.(0) key (Workload.value_for ~id:0 ~version:0 ~size:240);
        Sim.fork_join_named
          [
            ( Some "racy:a",
              fun () ->
                Backend.put clients.(0) key (Workload.value_for ~id:0 ~version:1 ~size:240) );
            ( Some "racy:b",
              fun () ->
                Backend.put clients.(1) key (Workload.value_for ~id:0 ~version:2 ~size:240) );
          ];
        match Backend.get clients.(0) key with Some v -> value_tag v | None -> "miss")
  in
  {
    name = "racy-demo";
    descr = "two same-instant writers to one key (must diverge)";
    expect_divergence = true;
    run;
  }

let targets ?(fast = false) () =
  [
    ycsb_target ~fast ~backend:"leed" ~mixname:"a" (fun () -> Workload.ycsb_a ());
    ycsb_target ~fast ~backend:"leed" ~mixname:"b" (fun () -> Workload.ycsb_b ());
    ycsb_target ~fast ~backend:"leed" ~mixname:"c" (fun () -> Workload.ycsb_c ());
    ycsb_target ~fast ~backend:"fawn" ~mixname:"b" (fun () -> Workload.ycsb_b ());
    ycsb_target ~fast ~backend:"kvell" ~mixname:"b" (fun () -> Workload.ycsb_b ());
    chaos_target ~fast ~bit_rot:false;
    chaos_target ~fast ~bit_rot:true;
    racy_demo;
  ]

let find_target ?fast name =
  match List.find_opt (fun t -> String.equal t.name name) (targets ?fast ()) with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "unknown race target %S (try: %s)" name
           (String.concat "/" (List.map (fun t -> t.name) (targets ?fast ()))))

(* ------------------------------------------------------------------ *)
(* Detection and attribution *)

type attribution = {
  limit : int;
  position : int;
  baseline_ev : Sim.dispatch;
  perturbed_ev : Sim.dispatch;
}

type divergence = { seed : int; digest : string; attribution : attribution option }

type result = {
  target : string;
  descr : string;
  runs : int;
  base_digest : string;
  events : int;
  divergences : divergence list;
  expect_divergence : bool;
}

(* [passed r]: clean targets must show no divergence; the racy fixture
   must show at least one. *)
let passed r = r.expect_divergence = (r.divergences <> [])

let dispatch_eq (a : Sim.dispatch) (b : Sim.dispatch) =
  a.Sim.d_seq = b.Sim.d_seq
  && Float.equal a.Sim.d_time b.Sim.d_time
  && String.equal a.Sim.d_label b.Sim.d_label

let logged_run (t : target) ~tiebreak =
  let log = ref [] in
  let digest = t.run ~tiebreak ~on_dispatch:(fun d -> log := d :: !log) () in
  (digest, Array.of_list (List.rev !log))

(* Bisect [Perturb_first]'s prefix limit between "reproduces the
   baseline" (limit 0 is FIFO by construction) and "reproduces the
   divergence", then diff the dispatch logs of the two adjacent runs:
   the first position where they disagree is the first commuting event
   pair — the two simultaneous events whose relative order the
   observables illegally depend on. Returns [None] if the divergence
   does not reproduce (which would indicate nondeterminism deeper than
   tie-breaking — worth a bug report of its own). *)
let attribute (t : target) ~base_digest ~seed =
  let dig_full, log_full = logged_run t ~tiebreak:(Sim.Perturbed seed) in
  if String.equal dig_full base_digest then None
  else
    let max_seq = Array.fold_left (fun m d -> max m d.Sim.d_seq) 0 log_full in
    let digest_at limit = t.run ~tiebreak:(Sim.Perturb_first { seed; limit }) () in
    if not (String.equal (digest_at 0) base_digest) then None
    else if String.equal (digest_at max_seq) base_digest then None
    else begin
      let lo = ref 0 and hi = ref max_seq in
      while !hi - !lo > 1 do
        let mid = !lo + ((!hi - !lo) / 2) in
        if String.equal (digest_at mid) base_digest then lo := mid else hi := mid
      done;
      let _, la = logged_run t ~tiebreak:(Sim.Perturb_first { seed; limit = !lo }) in
      let _, lb = logged_run t ~tiebreak:(Sim.Perturb_first { seed; limit = !hi }) in
      let n = min (Array.length la) (Array.length lb) in
      let pos = ref 0 in
      while !pos < n && dispatch_eq la.(!pos) lb.(!pos) do
        incr pos
      done;
      if !pos >= n then None
      else
        Some
          { limit = !hi; position = !pos; baseline_ev = la.(!pos); perturbed_ev = lb.(!pos) }
    end

let check ?(runs = 8) ?(seed = 1) ?(attribute_divergences = true) (t : target) =
  let events = ref 0 in
  let base_digest = t.run ~tiebreak:Sim.Fifo ~on_dispatch:(fun _ -> incr events) () in
  let divergences = ref [] in
  for k = 1 to runs do
    (* Independent, well-mixed perturbation seeds from the user seed. *)
    let s = Rng.hash2 seed k in
    let d = t.run ~tiebreak:(Sim.Perturbed s) () in
    if not (String.equal d base_digest) then
      divergences :=
        {
          seed = s;
          digest = d;
          attribution =
            (if attribute_divergences then attribute t ~base_digest ~seed:s else None);
        }
        :: !divergences
  done;
  {
    target = t.name;
    descr = t.descr;
    runs;
    base_digest;
    events = !events;
    divergences = List.rev !divergences;
    expect_divergence = t.expect_divergence;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pp_dispatch fmt (d : Sim.dispatch) =
  Format.fprintf fmt "%s (seq %d, t=%.9fs)" d.Sim.d_label d.Sim.d_seq d.Sim.d_time

let pp_result fmt (r : result) =
  Format.fprintf fmt "@[<v>%-16s %-52s " r.target r.descr;
  (match (r.divergences, r.expect_divergence) with
  | [], false -> Format.fprintf fmt "OK: %d/%d orderings agree (%d events)" (r.runs + 1) (r.runs + 1) r.events
  | [], true -> Format.fprintf fmt "FAIL: expected a divergence, saw none in %d orderings" r.runs
  | ds, expected ->
      Format.fprintf fmt "%s: %d/%d perturbed orderings diverged"
        (if expected then "OK (expected)" else "RACE")
        (List.length ds) r.runs;
      List.iter
        (fun d ->
          Format.fprintf fmt "@,  seed %#x: digest %s" d.seed d.digest;
          match d.attribution with
          | None -> Format.fprintf fmt " (attribution failed)"
          | Some a ->
              Format.fprintf fmt
                "@,    first commuting pair (dispatch #%d, perturbed prefix limit %d):@,      baseline order ran %a@,      perturbed order ran %a"
                a.position a.limit pp_dispatch a.baseline_ev pp_dispatch a.perturbed_ev)
        ds);
  Format.fprintf fmt "@]"
