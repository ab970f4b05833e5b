(* ABD-style multi-writer atomic register over the key's replica set —
   the second implementation behind the Replication seam.

   Every stored value is framed with a tag (logical timestamp, writer
   id). A write runs two quorum rounds: read the replicas' tags, mint a
   tag one above the highest seen, then store the framed value on a
   majority. A read collects (tag, value) from the replicas and, unless
   every reachable replica already agrees on the highest tag, writes
   that tag's value back to a majority before returning it — the
   write-back is what makes concurrent reads linearizable (a value once
   read is on a majority, so no later read can observe an older one) and
   doubles as online repair: a replica that missed writes while crashed
   or partitioned is healed by the next read that touches it.

   Replica side, the protocol is almost stateless: tags live in the
   framed values themselves (so they survive a crash-restart's log
   replay and ride COPY streams unchanged); the only DRAM state is a
   per-vnode cache of the highest accepted tag, which makes the
   accept-or-refuse decision atomic with respect to other handlers —
   comparing against the store alone would race, because the engine read
   yields while a concurrent higher-tagged write lands.

   Unlike CRRS there is no chain order and no dirty shipping: writes
   cost two round-trips everywhere all the time, reads pay a fan-out to
   every replica plus an occasional write-back round, and in exchange
   the protocol keeps serving both reads and writes while any minority
   of replicas is slow, partitioned, or dead — no repair membership
   change needed first. The chaos bench's BENCH_repl.json quantifies
   exactly this trade. *)

module R = Replication

let tag_max a b = if R.Tag.compare a b >= 0 then a else b

(* The tag of the value the STORE actually holds (not the gate): the
   engine read yields, so callers must treat the answer as a lower
   bound that was true at serialization time. [None] = nothing stored,
   or the store could not answer. *)
let store_tag env ~vidx ~key =
  match env.R.sv_submit ~deadline:0. ~vidx (Engine.Get key) with
  | Ok (Some v) -> (
      match R.Tag.unframe v with
      | Some (tg, _) -> Some tg
      | None -> Some R.Tag.zero (* pre-protocol raw bytes *))
  | Ok None | Error _ -> None

(* Highest tag this vnode has accepted: consult the DRAM gate first and
   fall back to the framed value in the store (cold cache after a
   restart), WARMING the gate from what the store answered so the next
   decision is cache-only and yield-free. The warm-up set is monotonic,
   so it cannot regress a tag a concurrent writer advanced during the
   store read's yield. [None] = nothing stored. *)
let local_tag env vs ~vidx ~key =
  match R.Vstate.tag_get vs key with
  | Some _ as c -> c
  | None -> (
      match store_tag env ~vidx ~key with
      | Some tg ->
          R.Vstate.tag_set vs key tg;
          Some tg
      | None -> None)

module Impl = struct
  let proto = R.Abd

  (* Phase-1 service: the replica's local (tag, framed value). *)
  let handle_tag_read env ~(vn : Ring.vnode) ~key ~want_value ~deadline ~version =
    R.guard env ~vn ~version (fun vs ->
        let vidx = vn.Ring.vidx in
        env.R.sv_note R.S_served_read;
        match R.local_get env ~vidx ~key ~deadline with
        | Ok (Some v) ->
            let tag = match R.Tag.unframe v with Some (tg, _) -> tg | None -> R.Tag.zero in
            (* Warm the write gate: the cache may be cold after a restart,
               and the monotonic set only ever raises it. *)
            R.Vstate.tag_set vs key tag;
            Messages.Tagged
              {
                value = (if want_value then Some v else None);
                tag = R.Tag.pair tag;
                tokens = env.R.sv_tokens ~vidx;
              }
        | Ok None ->
            Messages.Tagged
              { value = None; tag = R.Tag.pair R.Tag.zero; tokens = env.R.sv_tokens ~vidx }
        | Error reason ->
            env.R.sv_note R.S_nack;
            Messages.Nack reason)

  (* Phase-2 service: store [value] iff [tag] beats the local one. The
     gate is advanced *before* the engine write so a concurrent
     lower-tagged Tag_write observes it and refuses — no yield separates
     the final compare from the set. An Ok from this handler is a
     quorum-countable promise that the STORE holds a value at >= [tag]:
     the refuse branch therefore verifies the store before acking (the
     gate can run ahead of it while an accepted write's engine Put is in
     flight or after one failed), and a failed Put rolls the speculative
     gate advance back so the replica does not keep refusing writes it
     never applied. *)
  let handle_tag_write env ~(vn : Ring.vnode) ~key ~value ~tag ~deadline ~version =
    R.guard env ~vn ~version (fun vs ->
        let vidx = vn.Ring.vidx in
        let incoming = R.Tag.of_pair tag in
        (* Warm the gate if cold (may yield on a store read), then decide
           against the cache alone — synchronously, so nothing can slip
           between the compare and the set below. *)
        ignore (local_tag env vs ~vidx ~key);
        let prev = R.Vstate.tag_get vs key in
        let accept =
          match prev with
          | Some c when R.Tag.compare c incoming >= 0 -> false
          | Some _ | None -> true
        in
        if not accept then begin
          (* Gate at (or past) this tag already — but only the store can
             back an ack with data. If it holds >= [tag] the ack is a true
             idempotent Ok (e.g. a read's write-back of a tag we applied);
             if it lags (concurrent Put still in flight, or failed), ack
             would be a phantom quorum vote for a value we do not hold —
             NACK and let the writer count its majority elsewhere. *)
          match store_tag env ~vidx ~key with
          | Some l when R.Tag.compare l incoming >= 0 ->
              Messages.Ok { tokens = env.R.sv_tokens ~vidx }
          | Some _ | None ->
              env.R.sv_note R.S_nack;
              Messages.Nack Messages.Not_serving
        end
        else begin
          R.Vstate.tag_set vs key incoming;
          match env.R.sv_submit ~deadline ~vidx (Engine.Put (key, value)) with
          | Ok () ->
              env.R.sv_note R.S_write_apply;
              (* Commit hook: while a membership COPY streams out of this
                 replica, the accepted write must also reach the joining
                 vnode (the bulk stream may already be past this key). The
                 forward is tag-framed, so the joiner merges it
                 idempotently. No-op outside a COPY window. *)
              env.R.sv_on_commit ~key ~value;
              Messages.Ok { tokens = env.R.sv_tokens ~vidx }
          | Error f ->
              R.Vstate.tag_rollback vs key ~tag:incoming ~prev;
              env.R.sv_note R.S_nack;
              Messages.Nack (R.nack_of_failure f)
        end)

  let handle env (req : Messages.request) =
    match req with
    | Messages.Tag_read { vn; key; want_value; deadline; version } ->
        Some (handle_tag_read env ~vn ~key ~want_value ~deadline ~version)
    | Messages.Tag_write { vn; key; value; tag; deadline; version } ->
        Some (handle_tag_write env ~vn ~key ~value ~tag ~deadline ~version)
    | Messages.Get _ | Messages.Write _ ->
        (* chain-protocol traffic aimed at a quorum cluster *)
        Some (Messages.Nack Messages.Not_serving)
    | Messages.Copy_put _ | Messages.Repair_get _ | Messages.Ring_update _
    | Messages.Ping ->
        None

  (* --- client side --- *)

  (* Fan one request out to every chain member concurrently; responses
     land in chain order, so downstream folds are deterministic. *)
  let fan_out env chain mk =
    let arr = Array.make (List.length chain) None in
    Leed_sim.Sim.fork_join
      (List.mapi (fun i (e : Ring.entry) () -> arr.(i) <- env.R.cl_issue e (mk e)) chain);
    Array.to_list arr

  let shed_if_deadline env ~key resps =
    if
      List.exists
        (function Some (Messages.Nack Messages.Deadline_exceeded) -> true | _ -> false)
        resps
    then env.R.cl_fail_deadline ~key

  let note_if_nack env resps =
    if List.exists (function Some (Messages.Nack _) -> true | _ -> false) resps then
      env.R.cl_note R.C_nack

  (* Phase 1, one quorum round: every replica's (tag, value) — values
     only when [want_value] — or [None] short of a majority of answers. *)
  let query env chain ~key ~want_value ~deadline ~version =
    env.R.cl_note R.C_quorum_round;
    let resps =
      fan_out env chain (fun (e : Ring.entry) ->
          Messages.Tag_read { vn = e.Ring.owner; key; want_value; deadline; version })
    in
    shed_if_deadline env ~key resps;
    let tagged =
      List.filter_map
        (function
          | Some (Messages.Tagged { value; tag; _ }) -> Some (R.Tag.of_pair tag, value)
          | _ -> None)
        resps
    in
    if List.length tagged < R.quorum (List.length chain) then begin
      note_if_nack env resps;
      None
    end
    else Some tagged

  (* Phase 2, one quorum round: store [framed] under [tag] everywhere;
     [true] once a majority acked. *)
  let propagate env chain ~key ~framed ~tag ~deadline ~version =
    env.R.cl_note R.C_quorum_round;
    let resps =
      fan_out env chain (fun (e : Ring.entry) ->
          Messages.Tag_write
            { vn = e.Ring.owner; key; value = framed; tag = R.Tag.pair tag; deadline; version })
    in
    shed_if_deadline env ~key resps;
    let acks =
      List.length (List.filter (function Some (Messages.Ok _) -> true | _ -> false) resps)
    in
    if acks >= R.quorum (List.length chain) then true
    else begin
      note_if_nack env resps;
      false
    end

  let read env ~key ~deadline =
    let chain = Ring.chain env.R.cl_ring ~r:env.R.cl_r key in
    let version = Ring.version env.R.cl_ring in
    match chain with
    | [] -> None
    | _ -> (
        match query env chain ~key ~want_value:true ~deadline ~version with
        | None -> None
        | Some tagged ->
            let best_tag, best_val =
              List.fold_left
                (fun (bt, bv) (tg, v) -> if R.Tag.compare tg bt > 0 then (tg, v) else (bt, bv))
                (List.hd tagged) (List.tl tagged)
            in
            let payload =
              match best_val with
              | None -> None (* nothing written yet anywhere *)
              | Some framed -> (
                  match R.Tag.unframe framed with
                  | Some (_, p) -> p (* p = None: tagged tombstone (deleted) *)
                  | None -> Some framed (* pre-protocol raw bytes *))
            in
            let unanimous =
              List.length tagged = List.length chain
              && List.for_all (fun (tg, _) -> R.Tag.compare tg best_tag = 0) tagged
            in
            if unanimous then Some payload
            else begin
              (* Write-back round: put the winning (tag, value) on a
                 majority before serving it, repairing lagging replicas as
                 a side effect. *)
              env.R.cl_note R.C_writeback;
              let framed =
                match best_val with Some f -> f | None -> R.Tag.frame ~tag:best_tag None
              in
              if propagate env chain ~key ~framed ~tag:best_tag ~deadline ~version then
                Some payload
              else None
            end)

  let write env ~key ~value ~deadline =
    let chain = Ring.chain env.R.cl_ring ~r:env.R.cl_r key in
    let version = Ring.version env.R.cl_ring in
    match chain with
    | [] -> None
    | _ -> (
        match query env chain ~key ~want_value:false ~deadline ~version with
        | None -> None
        | Some tagged ->
            let high = List.fold_left (fun h (tg, _) -> tag_max h tg) R.Tag.zero tagged in
            let tag = { R.Tag.ts = high.R.Tag.ts + 1; writer = env.R.cl_writer } in
            let framed = R.Tag.frame ~tag value in
            if propagate env chain ~key ~framed ~tag ~deadline ~version then Some () else None)

  let payload_of_stored v =
    match R.Tag.unframe v with
    | Some (_, p) -> p (* None = tombstone *)
    | None -> Some v (* pre-protocol raw bytes *)

  (* COPY streams framed values between replicas: accept one iff its tag
     beats whatever this vnode already holds, and advance the gate at
     the moment of acceptance (same atomicity argument as Tag_write: the
     decision is made against the cache with no yield before the set,
     after [local_tag] has warmed it from the store). [fresh] is
     irrelevant here — the tag order makes COPY idempotent, so
     forward/bulk arrival order cannot clobber a newer value. The gate
     advance is speculative (the host's engine Put follows this call and
     can fail), but a gate ahead of the store is safe: Tag_write's
     refuse branch verifies the store before acking, so a phantom gate
     can only cost a retry, never a phantom quorum vote. *)
  let accept_copy env ~vidx vs ~key ~value ~fresh:_ =
    let incoming =
      match R.Tag.unframe value with Some (tg, _) -> tg | None -> R.Tag.zero
    in
    ignore (local_tag env vs ~vidx ~key);
    let accept =
      match R.Vstate.tag_get vs key with
      | Some c -> R.Tag.compare incoming c > 0
      | None -> true
    in
    if accept then R.Vstate.tag_set vs key incoming;
    accept
end

module Protocol : R.S = Impl

(* The per-cluster protocol selector. Lives here (not in Replication) so
   the seam module stays implementation-free and dependency-cycle-free:
   Node/Client/Cluster depend on Abd, Abd depends on Replication. *)
let protocol : R.proto -> (module R.S) = function
  | R.Crrs -> (module R.Crrs_protocol)
  | R.Abd -> (module Protocol)
