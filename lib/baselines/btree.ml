(* In-memory B-tree — the index structure KVell [SOSP'19] keeps per worker.

   Classic order-[m] B-tree with string keys and polymorphic values:
   insert/replace, find, delete, in-order iteration, and structural
   invariant checking (used by the property tests). Node occupancy between
   ⌈m/2⌉-1 and m-1 keys except the root. *)

type 'v node = {
  mutable keys : string array;
  mutable vals : 'v array;
  mutable kids : 'v node array; (* empty for leaves *)
  mutable n : int;              (* live keys *)
}

type 'v t = {
  order : int;
  dummy : 'v; (* fills unused array slots; never observed *)
  mutable root : 'v node;
  mutable size : int;
  (* modeled per-entry DRAM bytes (key + value pointer + node overhead) —
     what makes KVell's index blow the SmartNIC DRAM budget. *)
  entry_bytes : int;
}

let max_keys t = t.order - 1
let min_keys t = (t.order / 2) - 1

let mk_node order dummy =
  { keys = Array.make order ""; vals = Array.make order dummy; kids = [||]; n = 0 }

let create ?(order = 32) ?(entry_bytes = 40) ~dummy () =
  if order < 4 then invalid_arg "Btree.create: order must be >= 4";
  { order; dummy; root = mk_node order dummy; size = 0; entry_bytes }

let size t = t.size
let modeled_bytes t = t.size * t.entry_bytes
let is_leaf node = Array.length node.kids = 0

(* Index of the first key >= k in node (binary search). *)
let lower_bound node k =
  let lo = ref 0 and hi = ref node.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare node.keys.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find_node node k =
  let i = lower_bound node k in
  if i < node.n && String.equal node.keys.(i) k then Some node.vals.(i)
  else if is_leaf node then None
  else find_node node.kids.(i) k

let find t k = find_node t.root k
let mem t k = find t k <> None

(* --- insertion --- *)

let split_child t parent i =
  let child = parent.kids.(i) in
  let mid = max_keys t / 2 in
  let right = mk_node t.order t.dummy in
  right.n <- child.n - mid - 1;
  Array.blit child.keys (mid + 1) right.keys 0 right.n;
  Array.blit child.vals (mid + 1) right.vals 0 right.n;
  if not (is_leaf child) then begin
    right.kids <- Array.make (t.order + 1) child;
    Array.blit child.kids (mid + 1) right.kids 0 (right.n + 1)
  end;
  let up_key = child.keys.(mid) and up_val = child.vals.(mid) in
  child.n <- mid;
  (* shift parent entries right to make room *)
  for j = parent.n downto i + 1 do
    parent.keys.(j) <- parent.keys.(j - 1);
    parent.vals.(j) <- parent.vals.(j - 1)
  done;
  for j = parent.n + 1 downto i + 2 do
    parent.kids.(j) <- parent.kids.(j - 1)
  done;
  parent.keys.(i) <- up_key;
  parent.vals.(i) <- up_val;
  parent.kids.(i + 1) <- right;
  parent.n <- parent.n + 1

let rec insert_nonfull t node k v =
  let i = lower_bound node k in
  if i < node.n && String.equal node.keys.(i) k then begin
    node.vals.(i) <- v;
    false (* replaced *)
  end
  else if is_leaf node then begin
    for j = node.n downto i + 1 do
      node.keys.(j) <- node.keys.(j - 1);
      node.vals.(j) <- node.vals.(j - 1)
    done;
    node.keys.(i) <- k;
    node.vals.(i) <- v;
    node.n <- node.n + 1;
    true
  end
  else begin
    let i =
      if node.kids.(i).n = max_keys t then begin
        split_child t node i;
        if String.compare k node.keys.(i) > 0 then i + 1
        else if String.equal k node.keys.(i) then begin
          node.vals.(i) <- v;
          -1 (* replaced at the freshly lifted key *)
        end
        else i
      end
      else i
    in
    if i < 0 then false else insert_nonfull t node.kids.(i) k v
  end

let insert t k v =
  let root = t.root in
  if root.n = max_keys t then begin
    let new_root = mk_node t.order t.dummy in
    new_root.kids <- Array.make (t.order + 1) root;
    new_root.kids.(0) <- root;
    new_root.n <- 0;
    t.root <- new_root;
    split_child t new_root 0
  end;
  if insert_nonfull t t.root k v then t.size <- t.size + 1

(* --- deletion (classic CLRS structure) --- *)

let rec max_entry node =
  if is_leaf node then (node.keys.(node.n - 1), node.vals.(node.n - 1))
  else max_entry node.kids.(node.n)

let rec min_entry node =
  if is_leaf node then (node.keys.(0), node.vals.(0))
  else min_entry node.kids.(0)

let remove_from_leaf node i =
  for j = i to node.n - 2 do
    node.keys.(j) <- node.keys.(j + 1);
    node.vals.(j) <- node.vals.(j + 1)
  done;
  node.n <- node.n - 1

let merge_children t node i =
  (* merge kids.(i), keys.(i), kids.(i+1) into kids.(i) *)
  let left = node.kids.(i) and right = node.kids.(i + 1) in
  left.keys.(left.n) <- node.keys.(i);
  left.vals.(left.n) <- node.vals.(i);
  Array.blit right.keys 0 left.keys (left.n + 1) right.n;
  Array.blit right.vals 0 left.vals (left.n + 1) right.n;
  if not (is_leaf left) then Array.blit right.kids 0 left.kids (left.n + 1) (right.n + 1);
  left.n <- left.n + right.n + 1;
  for j = i to node.n - 2 do
    node.keys.(j) <- node.keys.(j + 1);
    node.vals.(j) <- node.vals.(j + 1)
  done;
  for j = i + 1 to node.n - 1 do
    node.kids.(j) <- node.kids.(j + 1)
  done;
  node.n <- node.n - 1;
  ignore t

let borrow_from_left node i =
  let child = node.kids.(i) and left = node.kids.(i - 1) in
  for j = child.n downto 1 do
    child.keys.(j) <- child.keys.(j - 1);
    child.vals.(j) <- child.vals.(j - 1)
  done;
  if not (is_leaf child) then
    for j = child.n + 1 downto 1 do
      child.kids.(j) <- child.kids.(j - 1)
    done;
  child.keys.(0) <- node.keys.(i - 1);
  child.vals.(0) <- node.vals.(i - 1);
  if not (is_leaf child) then child.kids.(0) <- left.kids.(left.n);
  node.keys.(i - 1) <- left.keys.(left.n - 1);
  node.vals.(i - 1) <- left.vals.(left.n - 1);
  left.n <- left.n - 1;
  child.n <- child.n + 1

let borrow_from_right node i =
  let child = node.kids.(i) and right = node.kids.(i + 1) in
  child.keys.(child.n) <- node.keys.(i);
  child.vals.(child.n) <- node.vals.(i);
  if not (is_leaf child) then child.kids.(child.n + 1) <- right.kids.(0);
  node.keys.(i) <- right.keys.(0);
  node.vals.(i) <- right.vals.(0);
  for j = 0 to right.n - 2 do
    right.keys.(j) <- right.keys.(j + 1);
    right.vals.(j) <- right.vals.(j + 1)
  done;
  if not (is_leaf right) then
    for j = 0 to right.n - 1 do
      right.kids.(j) <- right.kids.(j + 1)
    done;
  right.n <- right.n - 1;
  child.n <- child.n + 1

let rec delete_from t node k =
  let i = lower_bound node k in
  if i < node.n && String.equal node.keys.(i) k then begin
    if is_leaf node then begin
      remove_from_leaf node i;
      true
    end
    else if node.kids.(i).n > min_keys t then begin
      let pk, pv = max_entry node.kids.(i) in
      node.keys.(i) <- pk;
      node.vals.(i) <- pv;
      delete_from t node.kids.(i) pk
    end
    else if node.kids.(i + 1).n > min_keys t then begin
      let sk, sv = min_entry node.kids.(i + 1) in
      node.keys.(i) <- sk;
      node.vals.(i) <- sv;
      delete_from t node.kids.(i + 1) sk
    end
    else begin
      merge_children t node i;
      delete_from t node.kids.(i) k
    end
  end
  else if is_leaf node then false
  else begin
    let i = ref i in
    if node.kids.(!i).n <= min_keys t then begin
      if !i > 0 && node.kids.(!i - 1).n > min_keys t then borrow_from_left node !i
      else if !i < node.n && node.kids.(!i + 1).n > min_keys t then borrow_from_right node !i
      else begin
        if !i = node.n then decr i;
        merge_children t node !i
      end
    end;
    delete_from t node.kids.(!i) k
  end

let delete t k =
  let removed = delete_from t t.root k in
  if removed then t.size <- t.size - 1;
  (* A merge on the way down can empty the root even when [k] is absent. *)
  if t.root.n = 0 && not (is_leaf t.root) then t.root <- t.root.kids.(0);
  removed

(* --- iteration & checking --- *)

let rec iter_node node f =
  if is_leaf node then
    for i = 0 to node.n - 1 do
      f node.keys.(i) node.vals.(i)
    done
  else begin
    for i = 0 to node.n - 1 do
      iter_node node.kids.(i) f;
      f node.keys.(i) node.vals.(i)
    done;
    iter_node node.kids.(node.n) f
  end

let iter t f = iter_node t.root f

let to_list t =
  let acc = ref [] in
  iter t (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* Structural invariants: key ordering, occupancy bounds, uniform depth.
   Raises [Failure] describing the first violation. *)
let check t =
  let rec depth node = if is_leaf node then 0 else 1 + depth node.kids.(0) in
  let d = depth t.root in
  let rec go node level ~is_root =
    if node.n > max_keys t then failwith "node overfull";
    if (not is_root) && node.n < min_keys t then failwith "node underfull";
    for i = 1 to node.n - 1 do
      if String.compare node.keys.(i - 1) node.keys.(i) >= 0 then failwith "keys out of order"
    done;
    if is_leaf node then begin
      if level <> d then failwith "leaves at different depths"
    end
    else begin
      if Array.length node.kids < node.n + 1 then failwith "missing children";
      for i = 0 to node.n do
        go node.kids.(i) (level + 1) ~is_root:false
      done
    end
  in
  go t.root 0 ~is_root:true;
  let l = to_list t in
  if List.length l <> t.size then failwith "size mismatch";
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && sorted rest
    | _ -> true
  in
  if not (sorted l) then failwith "iteration not sorted"
