(* Deterministic virtual-time tracing.

   One global collector (the simulator is single-domain) holds a growable
   buffer of typed events plus a registry of named tracks. Emitters check
   a single mutable boolean first, never block, and read time only from
   Sim.now, so capture perturbs nothing and two same-seed runs serialize
   to byte-identical JSON. See trace.mli and docs/TRACING.md. *)

open Leed_sim

type track = { pid : int; tid : int }

type arg = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ts : float;
  ph : char;
  cat : string;
  name : string;
  pid : int;
  tid : int;
  id : int;
  dur : float;
  args : (string * arg) list;
}

let dummy_event =
  { ts = 0.; ph = 'X'; cat = ""; name = ""; pid = 0; tid = 0; id = 0; dur = 0.; args = [] }

type state = {
  mutable enabled : bool;
  mutable buf : event array;
  mutable len : int;
  mutable track_list : (int * int * string) list; (* newest first *)
  mutable next_pid : int;
  mutable tid_next : (int * int) list; (* pid -> next thread id *)
  mutable next_async : int;
}

let root = { pid = 0; tid = 0 }

(* Reviewed singleton: the process-wide trace collector. Tracing is a
   cross-cutting observation channel armed around a run ([start]/[stop]),
   never an input to simulation behaviour — the leed_trace determinism
   test proves captures byte-identical and runs unaffected. *)
let st =
  (* simlint: allow toplevel-state *)
  {
    enabled = false;
    buf = [||]; (* simlint: allow toplevel-state *)
    len = 0;
    track_list = [ (0, 0, "sim") ];
    next_pid = 1;
    tid_next = [];
    next_async = 1;
  }

let on () = st.enabled

let start () =
  st.buf <- [||];
  st.len <- 0;
  st.track_list <- [ (0, 0, "sim") ];
  st.next_pid <- 1;
  st.tid_next <- [];
  st.next_async <- 1;
  st.enabled <- true

let stop () = st.enabled <- false

let new_track ?(parent : track option) name =
  match parent with
  | None ->
      let pid = st.next_pid in
      st.next_pid <- pid + 1;
      st.track_list <- (pid, 0, name) :: st.track_list;
      { pid; tid = 0 }
  | Some p ->
      let tid = try List.assoc p.pid st.tid_next with Not_found -> 1 in
      st.tid_next <- (p.pid, tid + 1) :: List.remove_assoc p.pid st.tid_next;
      st.track_list <- (p.pid, tid, name) :: st.track_list;
      { pid = p.pid; tid }

let tracks () = List.rev st.track_list

(* --- the buffer --- *)

let push ev =
  let cap = Array.length st.buf in
  if st.len = cap then begin
    let bigger = Array.make (max 256 (2 * cap)) dummy_event in
    Array.blit st.buf 0 bigger 0 st.len;
    st.buf <- bigger
  end;
  st.buf.(st.len) <- ev;
  st.len <- st.len + 1

let count () = st.len

let events () = List.init st.len (fun i -> st.buf.(i))

(* --- emitters --- *)

let us_of t = Sim.to_us t

let span ?(track = root) ?(args = []) ~cat name f =
  if not st.enabled then f ()
  else begin
    let t0 = Sim.now () in
    let emit extra =
      push
        {
          ts = us_of t0;
          ph = 'X';
          cat;
          name;
          pid = track.pid;
          tid = track.tid;
          id = 0;
          dur = us_of (Sim.now () -. t0);
          args = extra @ args;
        }
    in
    match f () with
    | v ->
        emit [];
        v
    | exception e ->
        emit [ ("exn", Bool true) ];
        raise e
  end

let complete ?(track = root) ?(args = []) ~cat name ~since =
  if st.enabled then
    push
      {
        args;
        ts = us_of since;
        ph = 'X';
        cat;
        name;
        pid = track.pid;
        tid = track.tid;
        id = 0;
        dur = us_of (Sim.now () -. since);
      }

let instant ?(track = root) ?(args = []) ~cat name =
  if st.enabled then
    push
      {
        ts = us_of (Sim.now ());
        ph = 'i';
        cat;
        name;
        pid = track.pid;
        tid = track.tid;
        id = 0;
        dur = 0.;
        args;
      }

let counter ?(track = root) ~cat name series =
  if st.enabled then
    push
      {
        ts = us_of (Sim.now ());
        ph = 'C';
        cat;
        name;
        pid = track.pid;
        tid = track.tid;
        id = 0;
        dur = 0.;
        args = List.map (fun (k, v) -> (k, Float v)) series;
      }

let next_id () =
  if not st.enabled then 0
  else begin
    let v = st.next_async in
    st.next_async <- v + 1;
    v
  end

let async_event ph ?(track = root) ?(args = []) ~cat ~id name =
  if st.enabled then
    push
      {
        ts = us_of (Sim.now ());
        ph;
        cat;
        name;
        pid = track.pid;
        tid = track.tid;
        id;
        dur = 0.;
        args;
      }

let async_begin ?track ?args ~cat ~id name = async_event 'b' ?track ?args ~cat ~id name
let async_end ?track ?args ~cat ~id name = async_event 'e' ?track ?args ~cat ~id name

(* --- Chrome trace_event serialization --- *)

(* Deterministic float rendering: integers print without a fraction,
   everything else with fixed six decimals (sub-picosecond at the
   microsecond scale of our timestamps). *)
let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.6f" f)

let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_arg b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_num b f
  | Str s -> add_str b s
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let add_args b args =
  Buffer.add_string b "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_str b k;
      Buffer.add_char b ':';
      add_arg b v)
    args;
  Buffer.add_char b '}'

let add_event b ev =
  Buffer.add_string b "{\"ph\":\"";
  Buffer.add_char b ev.ph;
  Buffer.add_string b "\",\"cat\":";
  add_str b ev.cat;
  Buffer.add_string b ",\"name\":";
  add_str b ev.name;
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":%d,\"ts\":" ev.pid ev.tid);
  add_num b ev.ts;
  if ev.ph = 'X' then begin
    Buffer.add_string b ",\"dur\":";
    add_num b ev.dur
  end;
  if ev.ph = 'b' || ev.ph = 'e' then Buffer.add_string b (Printf.sprintf ",\"id\":%d" ev.id);
  if ev.args <> [] then begin
    Buffer.add_string b ",\"args\":";
    add_args b ev.args
  end;
  Buffer.add_char b '}'

let add_meta b ~pid ~tid ~name =
  let kind = if tid = 0 then "process_name" else "thread_name" in
  Buffer.add_string b (Printf.sprintf "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"args\":{\"name\":" pid tid kind);
  add_str b name;
  Buffer.add_string b "}}"

let to_json () =
  let b = Buffer.create (4096 + (st.len * 96)) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit_one add =
    if !first then first := false else Buffer.add_string b ",\n";
    add ()
  in
  List.iter
    (fun (pid, tid, name) -> emit_one (fun () -> add_meta b ~pid ~tid ~name))
    (tracks ());
  List.iter (fun ev -> emit_one (fun () -> add_event b ev)) (events ());
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_file path =
  let oc = open_out_bin path in
  output_string oc (to_json ());
  close_out oc

(* --- minimal JSON emitter, parser + schema validator --- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Int of int
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let rec to_buffer b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f -> if Float.is_finite f then Printf.bprintf b "%.9g" f else Buffer.add_string b "null"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Str s -> add_str b s
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            to_buffer b x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            add_str b k;
            Buffer.add_char b ':';
            to_buffer b v)
          fields;
        Buffer.add_char b '}'

  let write path t =
    let b = Buffer.create 4096 in
    to_buffer b t;
    Buffer.add_char b '\n';
    let oc = open_out_bin path in
    Buffer.output_buffer oc b;
    close_out oc

  exception Err of int * string

  let parse s =
    let n = String.length s in
    let i = ref 0 in
    let err msg = raise (Err (!i, msg)) in
    let peek () = if !i < n then s.[!i] else '\255' in
    let skip_ws () =
      while !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr i
      done
    in
    let lit word v =
      let l = String.length word in
      if !i + l <= n && String.sub s !i l = word then begin
        i := !i + l;
        v
      end
      else err ("expected " ^ word)
    in
    let number () =
      let start = !i in
      if peek () = '-' then incr i;
      let digits () =
        while (match peek () with '0' .. '9' -> true | _ -> false) do
          incr i
        done
      in
      digits ();
      if peek () = '.' then begin
        incr i;
        digits ()
      end;
      (match peek () with
      | 'e' | 'E' ->
          incr i;
          (match peek () with '+' | '-' -> incr i | _ -> ());
          digits ()
      | _ -> ());
      match float_of_string_opt (String.sub s start (!i - start)) with
      | Some f -> Num f
      | None -> err "malformed number"
    in
    let string_lit () =
      if peek () <> '"' then err "expected string";
      incr i;
      let b = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !i >= n then err "unterminated string";
        (match s.[!i] with
        | '"' -> fin := true
        | '\\' ->
            incr i;
            (match peek () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !i + 4 >= n then err "truncated \\u escape";
                (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 4) with
                | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
                | Some _ -> Buffer.add_char b '?' (* lossy: validation never needs non-ASCII *)
                | None -> err "malformed \\u escape");
                i := !i + 4
            | _ -> err "unknown escape")
        | c -> Buffer.add_char b c);
        incr i
      done;
      Buffer.contents b
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' -> obj ()
      | '[' -> arr ()
      | '"' -> Str (string_lit ())
      | 't' -> lit "true" (Bool true)
      | 'f' -> lit "false" (Bool false)
      | 'n' -> lit "null" Null
      | '-' | '0' .. '9' -> number ()
      | _ -> err "unexpected character"
    and obj () =
      incr i;
      skip_ws ();
      if peek () = '}' then begin
        incr i;
        Obj []
      end
      else begin
        let fields = ref [] in
        let fin = ref false in
        while not !fin do
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          if peek () <> ':' then err "expected ':'";
          incr i;
          let v = value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | ',' -> incr i
          | '}' ->
              incr i;
              fin := true
          | _ -> err "expected ',' or '}'"
        done;
        Obj (List.rev !fields)
      end
    and arr () =
      incr i;
      skip_ws ();
      if peek () = ']' then begin
        incr i;
        Arr []
      end
      else begin
        let elems = ref [] in
        let fin = ref false in
        while not !fin do
          let v = value () in
          elems := v :: !elems;
          skip_ws ();
          match peek () with
          | ',' -> incr i
          | ']' ->
              incr i;
              fin := true
          | _ -> err "expected ',' or ']'"
        done;
        Arr (List.rev !elems)
      end
    in
    try
      let v = value () in
      skip_ws ();
      if !i <> n then Error (Printf.sprintf "at byte %d: trailing content" !i) else Ok v
    with Err (pos, m) -> Error (Printf.sprintf "at byte %d: %s" pos m)
end

let validate text =
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let* doc = Json.parse text in
  let field k = function Json.Obj fields -> List.assoc_opt k fields | _ -> None in
  let* evs =
    match field "traceEvents" doc with
    | Some (Json.Arr l) -> Ok l
    | _ -> Error "top level must be an object with a traceEvents array"
  in
  let phases = [ 'X'; 'i'; 'C'; 'b'; 'e'; 'M' ] in
  let counts = Array.make 256 0 in
  let cats = ref [] in
  let open_async : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let check i ev =
    let where what = Error (Printf.sprintf "event %d: %s" i what) in
    let str k = match field k ev with Some (Json.Str s) -> Some s | _ -> None in
    let num k = match field k ev with Some (Json.Num f) -> Some f | _ -> None in
    match str "ph" with
    | Some ph when String.length ph = 1 && List.mem ph.[0] phases -> (
        let ph = ph.[0] in
        counts.(Char.code ph) <- counts.(Char.code ph) + 1;
        match (str "name", num "pid", num "tid") with
        | None, _, _ -> where "missing string \"name\""
        | _, None, _ | _, _, None -> where "missing numeric \"pid\"/\"tid\""
        | Some name, Some _, Some _ ->
            if ph = 'M' then Ok ()
            else begin
              (match str "cat" with Some c when not (List.mem c !cats) -> cats := c :: !cats | _ -> ());
              match num "ts" with
              | None -> where "missing numeric \"ts\""
              | Some ts when ts < 0. -> where "negative \"ts\""
              | Some _ -> (
                  match ph with
                  | 'X' -> (
                      match num "dur" with
                      | Some d when d >= 0. -> Ok ()
                      | Some _ -> where "negative \"dur\""
                      | None -> where "'X' event missing \"dur\"")
                  | 'C' -> (
                      match field "args" ev with
                      | Some (Json.Obj ((_ :: _) as series))
                        when List.for_all (fun (_, v) -> match v with Json.Num _ -> true | _ -> false) series
                        ->
                          Ok ()
                      | _ -> where "'C' event needs a non-empty all-numeric args object")
                  | 'b' | 'e' -> (
                      match (num "id", str "cat") with
                      | None, _ -> where "async event missing numeric \"id\""
                      | _, None -> where "async event missing \"cat\""
                      | Some id, Some cat ->
                          let key = Printf.sprintf "%s/%d/%s" cat (int_of_float id) name in
                          let opened = try Hashtbl.find open_async key with Not_found -> 0 in
                          if ph = 'b' then begin
                            Hashtbl.replace open_async key (opened + 1);
                            Ok ()
                          end
                          else if opened <= 0 then
                            where (Printf.sprintf "'e' with no matching 'b' (%s)" key)
                          else begin
                            Hashtbl.replace open_async key (opened - 1);
                            Ok ()
                          end)
                  | _ -> Ok ())
            end)
    | Some ph -> where (Printf.sprintf "unknown phase %S" ph)
    | None -> where "missing string \"ph\""
  in
  let rec walk i = function
    | [] -> Ok ()
    | ev :: rest -> (
        match check i ev with Error _ as e -> e | Ok () -> walk (i + 1) rest)
  in
  let* () = walk 0 evs in
  Ok
    (Printf.sprintf
       "valid Chrome trace: %d events (%d X, %d i, %d C, %d b, %d e, %d M) across %d categories: %s"
       (List.length evs)
       counts.(Char.code 'X') counts.(Char.code 'i') counts.(Char.code 'C')
       counts.(Char.code 'b') counts.(Char.code 'e') counts.(Char.code 'M')
       (List.length !cats)
       (String.concat "," (List.sort compare !cats)))

let validate_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      validate text
