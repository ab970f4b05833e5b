(* Per-key operation histories and a single-key Wing–Gong
   linearizability checker.

   The chaos harness records every completed client operation against a
   key as an (invocation time, response time, operation, outcome)
   record; after the run the checker searches, key by key, for a legal
   sequential ordering of those operations consistent with their
   real-time intervals. Keys are independent registers (both CRRS and
   ABD order per key), so the search never crosses keys and the state
   space stays tiny under the chaos workload's low per-key concurrency.

   A failed write is the classic ambiguous case: the client saw an
   error, but the write may still have taken effect (a partial chain
   apply, a minority quorum). The checker gives such an op an effective
   response time of +infinity (it may linearize arbitrarily late) and
   explores both branches — the write happened, or it never did. Failed
   reads carry no obligation and are simply not recorded. *)

type value = int option

type kind = Read of value | Write of value

type outcome = Ok | Failed

type op = { start : float; finish : float; kind : kind; outcome : outcome }

type t = { tbl : (string, op list ref) Hashtbl.t; mutable total : int }

let create () = { tbl = Hashtbl.create 64; total = 0 }

let record t ~key op =
  (match Hashtbl.find_opt t.tbl key with
  | Some r -> r := op :: !r
  | None -> Hashtbl.add t.tbl key (ref [ op ]));
  t.total <- t.total + 1

let total t = t.total

let keys t =
  (* deterministic iteration for digests and reports
     (simlint: allow hashtbl-order — sorted immediately) *)
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])

let ops t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> []
  | Some r -> List.stable_sort (fun a b -> compare a.start b.start) !r

type result =
  | Linearizable
  | Violation of { key : string; detail : string }

let default_budget = 500_000

(* The effective response time: a failed write may take effect at any
   later point, so nothing is ever obliged to linearize after it. *)
let resp_eff op = match op.outcome with Ok -> op.finish | Failed -> infinity

let show_value = function None -> "none" | Some s -> Printf.sprintf "seq %d" s

let show_op op =
  Printf.sprintf "%s %s [%.6f, %s]%s"
    (match op.kind with Read _ -> "read" | Write _ -> "write")
    (match op.kind with Read v | Write v -> show_value v)
    op.start
    (match op.outcome with Ok -> Printf.sprintf "%.6f" op.finish | Failed -> "inf")
    (match op.outcome with Ok -> "" | Failed -> " (failed)")

(* The shortest proof of a stale read, if the history holds one: the
   first read (by invocation) that returned [v] although an [Ok] write of
   another value finished before the read began, and every write of [v]
   (the initial [None] included, at -infinity) finished before that
   write began. No order can then put a write of [v] between the two.
   Of several such writes, the one that finished last. *)
let stale_read_witness ops =
  let last_write_of v =
    Array.fold_left
      (fun acc o -> match o.kind with Write v' when v' = v -> Float.max acc (resp_eff o) | _ -> acc)
      neg_infinity ops
  in
  let overwrite r v =
    let last = last_write_of v in
    Array.fold_left
      (fun best w ->
        match (w.kind, w.outcome) with
        | Write v', Ok when v' <> v && w.finish < r.start && w.start > last -> (
            match best with Some b when b.finish >= w.finish -> best | _ -> Some w)
        | _ -> best)
      None ops
  in
  Array.to_list ops
  |> List.find_map (fun r ->
         match r.kind with
         | Read v -> Option.map (fun w -> (r, w)) (overwrite r v)
         | Write _ -> None)

(* Wing–Gong search over one key's operations. States are (set of
   linearized ops, register value); memoized so concurrent windows are
   explored once per reachable value, and bounded by [budget] explored
   states so a pathological history fails loudly instead of hanging. *)
let check_key ?(budget = default_budget) t key =
  let ops = Array.of_list (ops t key) in
  let n = Array.length ops in
  if n = 0 then Linearizable
  else begin
    let done_ = Array.make n false in
    let seen = Hashtbl.create 1024 in
    let explored = ref 0 in
    let exceeded = ref false in
    let state_key value =
      let b = Bytes.make ((n + 7) / 8) '\000' in
      for i = 0 to n - 1 do
        if done_.(i) then
          Bytes.set b (i / 8)
            (Char.chr (Char.code (Bytes.get b (i / 8)) lor (1 lsl (i mod 8))))
      done;
      Bytes.to_string b ^ (match value with None -> "-" | Some s -> string_of_int s)
    in
    let rec search ndone value =
      if ndone = n then true
      else if !exceeded then false
      else begin
        let sk = state_key value in
        if Hashtbl.mem seen sk then false
        else begin
          Hashtbl.add seen sk ();
          incr explored;
          if !explored > budget then begin
            exceeded := true;
            false
          end
          else begin
            (* an op may linearize first iff no other pending op's
               response precedes its invocation *)
            let horizon = ref infinity in
            for i = 0 to n - 1 do
              if not done_.(i) then
                let r = resp_eff ops.(i) in
                if r < !horizon then horizon := r
            done;
            let ok = ref false in
            let i = ref 0 in
            while (not !ok) && !i < n do
              let idx = !i in
              if (not done_.(idx)) && ops.(idx).start <= !horizon then begin
                (match ops.(idx).kind with
                | Read v ->
                    if v = value then begin
                      done_.(idx) <- true;
                      if search (ndone + 1) value then ok := true;
                      done_.(idx) <- false
                    end
                | Write v -> (
                    done_.(idx) <- true;
                    if search (ndone + 1) v then ok := true;
                    (* a failed write may also have never taken effect *)
                    (match ops.(idx).outcome with
                    | Failed -> if (not !ok) && search (ndone + 1) value then ok := true
                    | Ok -> ());
                    done_.(idx) <- false))
              end;
              incr i
            done;
            !ok
          end
        end
      end
    in
    if search 0 None then Linearizable
    else
      Violation
        {
          key;
          detail =
            (if !exceeded then
               Printf.sprintf
                 "state budget (%d) exceeded over %d ops — treating as a violation" budget n
             else
               Printf.sprintf "no legal linearization of %d ops (%d states)%s; history:\n  %s" n
                 !explored
                 (match stale_read_witness ops with
                 | None -> ""
                 | Some (r, w) ->
                     Printf.sprintf "; witness: %s began after %s overwrote its value"
                       (show_op r) (show_op w))
                 (String.concat "\n  " (Array.to_list (Array.map show_op ops))));
        }
  end

let check ?budget t =
  let rec go = function
    | [] -> Linearizable
    | k :: rest -> (
        match check_key ?budget t k with Linearizable -> go rest | v -> v)
  in
  go (keys t)
