(* Runtime invariant sanitizer.

   A global, default-off switch guards every check so the instrumented hot
   paths cost one branch when sanitizing is disabled. The switch is flipped
   by [Sim.run ~checks:true] (or the LEED_SANITIZE=1 environment variable)
   and restored when the run finishes, so nested simulations inherit and
   then give back the setting.

   This module deliberately does not depend on [Sim]: call sites pass the
   simulation time explicitly, which keeps the dependency arrow pointing
   one way ([Sim] performs monotonicity checks through this module). *)

exception Violation of string

(* Reviewed singleton: the sanitizer arm/disarm flag is saved and
   restored by every [Sim.run], so runs cannot leak state into each
   other; it must predate the engine because [Sim] itself consults it. *)
(* simlint: allow toplevel-state *)
let enabled = ref false

let active () = !enabled
let set_enabled b = enabled := b

(* Honour the environment once at module init: running any binary under
   LEED_SANITIZE=1 sanitizes every simulation it performs, not just the
   ones that opted in with [~checks:true]. *)
let env_default =
  match Sys.getenv_opt "LEED_SANITIZE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let () = if env_default then enabled := true

let violate ~invariant ~time detail =
  raise
    (Violation
       (Printf.sprintf "invariant %S violated at t=%.9gs: %s" invariant time detail))

let require ~invariant ~time cond ~detail =
  if !enabled && not cond then violate ~invariant ~time (detail ())

(* ------------------------------------------------------------------ *)
(* Token conservation ledger (issued = consumed + outstanding).

   The I/O engine keeps its own [active_tokens] balance; the ledger is an
   independent account of the same flow, and the cross-check between the
   two is what catches a lost or double-released token. All updates are
   gated on [active] so the ledger is dead weight — two unread ints — when
   sanitizing is off. *)

module Tokens = struct
  type t = { name : string; mutable issued : int; mutable consumed : int }

  let create ~name = { name; issued = 0; consumed = 0 }

  let issued t = t.issued
  let consumed t = t.consumed
  let outstanding t = t.issued - t.consumed

  let issue t ~time n =
    if !enabled then begin
      if n <= 0 then
        violate ~invariant:"token-conservation" ~time
          (Printf.sprintf "%s: issued a non-positive batch of %d tokens" t.name n);
      t.issued <- t.issued + n
    end

  let consume t ~time n =
    if !enabled then begin
      if n <= 0 then
        violate ~invariant:"token-conservation" ~time
          (Printf.sprintf "%s: consumed a non-positive batch of %d tokens" t.name n);
      t.consumed <- t.consumed + n;
      if t.consumed > t.issued then
        violate ~invariant:"token-conservation" ~time
          (Printf.sprintf "%s: consumed %d tokens but only %d were ever issued"
             t.name t.consumed t.issued)
    end

  (* Guarded like [issue] and [consume], so the off path builds no
     message closure. *)
  let check_balance t ~time ~expect_outstanding =
    if !enabled && outstanding t <> expect_outstanding then
      violate ~invariant:"token-conservation" ~time
        (Printf.sprintf
           "%s: ledger says %d tokens outstanding (issued=%d consumed=%d) but the \
            engine's balance is %d"
           t.name (outstanding t) t.issued t.consumed expect_outstanding)
end
