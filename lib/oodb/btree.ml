(* A textbook in-memory B+-tree whose keys are (value, OID) pairs: values
   only at the leaves, leaves linked for range scans, splitting on overflow,
   borrowing/merging on underflow.  Keying on the pair makes every entry
   unique, so a duplicate value needs no per-key OID set, and the OIDs under
   one value come out in OID order.

   Nodes are fixed-capacity parallel arrays plus a fill count, allocated
   once when the node is created; insert, remove, split, borrow and merge
   shift entries with [Array.blit].  Slots past the fill count hold [Null]
   and dead children, so a node retains nothing that left it. *)

type node = Leaf of leaf | Node of internal

and leaf = {
  mutable len : int;
  (* pairs [0, len) sorted; capacity order + 1 (one transient overflow) *)
  vals : Value.t array;
  oids : Oid.t array;
  mutable next : leaf option;
}

and internal = {
  (* Separator [i] is the smallest pair reachable in child [i + 1];
     [nsep] separators, [nsep + 1] children. *)
  mutable nsep : int;
  svals : Value.t array; (* capacity order *)
  soids : Oid.t array;
  kids : node array; (* capacity order + 1 *)
}

type t = { mutable root : node; order : int; mutable n_pairs : int }

let no_oid = Oid.of_int 0
let dead = Leaf { len = 0; vals = [||]; oids = [||]; next = None }

let new_leaf order =
  {
    len = 0;
    vals = Array.make (order + 1) Value.Null;
    oids = Array.make (order + 1) no_oid;
    next = None;
  }

let new_internal order =
  {
    nsep = 0;
    svals = Array.make order Value.Null;
    soids = Array.make order no_oid;
    kids = Array.make (order + 1) dead;
  }

let create ?(order = 16) () =
  let order = max 4 order in
  { root = Leaf (new_leaf order); order; n_pairs = 0 }

let cardinal t = t.n_pairs

(* --- comparisons --------------------------------------------------------- *)

let cmp_pair v (o : Oid.t) v' (o' : Oid.t) =
  let c = Value.compare v v' in
  if c <> 0 then c else Int.compare (o :> int) (o' :> int)

(* Leaf pair [i], or separator [i], against (v, o). *)
let leaf_pair_cmp l i v o = cmp_pair l.vals.(i) l.oids.(i) v o
let sep_cmp n i v o = cmp_pair n.svals.(i) n.soids.(i) v o

(* First leaf slot holding a pair >= (v, o). *)
let leaf_search l v o =
  let lo = ref 0 and hi = ref l.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if leaf_pair_cmp l mid v o < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Value-only searches take a [bias]: with 0 they find the first pair whose
   value is >= v, with 1 the first whose value is > v. *)
let leaf_search_value l v bias =
  let lo = ref 0 and hi = ref l.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Value.compare l.vals.(mid) v < bias then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child holding pair (v, o): the number of separators <= it. *)
let route n v o =
  let lo = ref 0 and hi = ref n.nsep in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if sep_cmp n mid v o <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Leftmost child that can hold the first pair [leaf_search_value] looks
   for. *)
let route_value n v bias =
  let lo = ref 0 and hi = ref n.nsep in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Value.compare n.svals.(mid) v < bias then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- find / iterate ------------------------------------------------------ *)

let rec leftmost = function Leaf l -> l | Node n -> leftmost n.kids.(0)
let rec rightmost = function Leaf l -> l | Node n -> rightmost n.kids.(n.nsep)

(* Leaf and slot of the first pair whose value is >= v ([bias] 0) or > v
   ([bias] 1); the slot may be one past the leaf's last pair. *)
let rec seek node v bias =
  match node with
  | Leaf l -> (l, leaf_search_value l v bias)
  | Node n -> seek n.kids.(route_value n v bias) v bias

(* Walk the leaf chain from slot [i] of [l], calling [f] on each pair until
   it returns false. *)
let walk l i f =
  let rec go l i =
    if i < l.len then (if f l.vals.(i) l.oids.(i) then go l (i + 1))
    else match l.next with Some l' -> go l' 0 | None -> ()
  in
  go l i

let find t v =
  let l, i = seek t.root v 0 in
  let out = ref [] in
  walk l i (fun v' o ->
      Value.compare v' v = 0
      && begin
        out := o :: !out;
        true
      end);
  List.rev !out

(* Pairs grouped by value, ascending, from slot [i] of [l] while [keep]
   holds. *)
let grouped l i keep =
  let out = ref [] in
  walk l i (fun v o ->
      keep v
      && begin
        (match !out with
        | (k, os) :: rest when Value.compare k v = 0 ->
          out := (k, o :: os) :: rest
        | _ -> out := (v, [ o ]) :: !out);
        true
      end);
  List.rev_map (fun (k, os) -> (k, List.rev os)) !out

let range t ?lo ?hi () =
  let start, i =
    match lo with
    | None -> (leftmost t.root, 0)
    | Some (v, inclusive) -> seek t.root v (if inclusive then 0 else 1)
  in
  let below_hi =
    match hi with
    | None -> fun _ -> true
    | Some (w, inclusive) ->
      if inclusive then fun k -> Value.compare k w <= 0
      else fun k -> Value.compare k w < 0
  in
  grouped start i below_hi

let iter t f =
  grouped (leftmost t.root) 0 (fun _ -> true)
  |> List.iter (fun (k, oids) -> f k oids)

let min_key t =
  let l = leftmost t.root in
  if l.len > 0 then Some l.vals.(0) else None

let max_key t =
  let l = rightmost t.root in
  if l.len > 0 then Some l.vals.(l.len - 1) else None

let key_count t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let height t =
  let rec depth = function Leaf _ -> 1 | Node n -> 1 + depth n.kids.(0) in
  depth t.root

let clear t =
  t.root <- Leaf (new_leaf t.order);
  t.n_pairs <- 0

(* --- in-place slot shifting ---------------------------------------------- *)

(* Open slot [i] of a leaf (entries [i, len) move right by one). *)
let leaf_open l i =
  Array.blit l.vals i l.vals (i + 1) (l.len - i);
  Array.blit l.oids i l.oids (i + 1) (l.len - i);
  l.len <- l.len + 1

(* Close slot [i] of a leaf and clear the vacated last slot. *)
let leaf_close l i =
  let n = l.len - 1 in
  Array.blit l.vals (i + 1) l.vals i (n - i);
  Array.blit l.oids (i + 1) l.oids i (n - i);
  l.vals.(n) <- Value.Null;
  l.len <- n

(* Move leaf slots [from, len) to the end of [dst]; [src] keeps [0, from). *)
let leaf_move src from dst =
  let k = src.len - from in
  Array.blit src.vals from dst.vals dst.len k;
  Array.blit src.oids from dst.oids dst.len k;
  Array.fill src.vals from k Value.Null;
  src.len <- from;
  dst.len <- dst.len + k

(* Open separator slot [i] and child slot [i + 1]. *)
let node_open n i =
  Array.blit n.svals i n.svals (i + 1) (n.nsep - i);
  Array.blit n.soids i n.soids (i + 1) (n.nsep - i);
  Array.blit n.kids (i + 1) n.kids (i + 2) (n.nsep - i);
  n.nsep <- n.nsep + 1

(* Close separator slot [i] and child slot [i + ki] ([ki] is 0 or 1). *)
let node_close n i ki =
  let s = n.nsep - 1 in
  Array.blit n.svals (i + 1) n.svals i (s - i);
  Array.blit n.soids (i + 1) n.soids i (s - i);
  Array.blit n.kids (i + ki + 1) n.kids (i + ki) (s + 1 - i - ki);
  n.svals.(s) <- Value.Null;
  n.kids.(s + 1) <- dead;
  n.nsep <- s

let set_sep n i v o =
  n.svals.(i) <- v;
  n.soids.(i) <- o

(* Merge: append separator (v, o), then all of [src]'s separators and
   children, to [dst].  [src] is discarded. *)
let node_append dst v o src =
  let d = dst.nsep + 1 in
  set_sep dst dst.nsep v o;
  Array.blit src.svals 0 dst.svals d src.nsep;
  Array.blit src.soids 0 dst.soids d src.nsep;
  Array.blit src.kids 0 dst.kids d (src.nsep + 1);
  dst.nsep <- d + src.nsep

(* --- insertion ----------------------------------------------------------- *)

type split = No_split | Split of Value.t * Oid.t * node

(* Insert into a subtree; [Split (v, o, right)] when the node split, with
   (v, o) the smallest pair of [right]. *)
let rec insert_rec t node v o =
  match node with
  | Leaf l ->
    let i = leaf_search l v o in
    if i < l.len && leaf_pair_cmp l i v o = 0 then No_split
    else begin
      leaf_open l i;
      l.vals.(i) <- v;
      l.oids.(i) <- o;
      t.n_pairs <- t.n_pairs + 1;
      if l.len <= t.order then No_split
      else begin
        let right = new_leaf t.order in
        leaf_move l (l.len / 2) right;
        right.next <- l.next;
        l.next <- Some right;
        Split (right.vals.(0), right.oids.(0), Leaf right)
      end
    end
  | Node n -> (
    let i = route n v o in
    match insert_rec t n.kids.(i) v o with
    | No_split -> No_split
    | Split (sv, so, child) ->
      node_open n i;
      set_sep n i sv so;
      n.kids.(i + 1) <- child;
      if n.nsep < t.order then No_split
      else begin
        (* the middle separator moves up; the right node starts with the
           child to its right *)
        let mid = n.nsep / 2 in
        let uv = n.svals.(mid) and uo = n.soids.(mid) in
        let right = new_internal t.order in
        right.kids.(0) <- n.kids.(mid + 1);
        let k = n.nsep - mid - 1 in
        Array.blit n.svals (mid + 1) right.svals 0 k;
        Array.blit n.soids (mid + 1) right.soids 0 k;
        Array.blit n.kids (mid + 2) right.kids 1 k;
        right.nsep <- k;
        Array.fill n.svals mid (k + 1) Value.Null;
        Array.fill n.kids (mid + 1) (k + 1) dead;
        n.nsep <- mid;
        Split (uv, uo, Node right)
      end)

let insert t v o =
  match insert_rec t t.root v o with
  | No_split -> ()
  | Split (sv, so, right) ->
    let r = new_internal t.order in
    r.kids.(0) <- t.root;
    r.kids.(1) <- right;
    set_sep r 0 sv so;
    r.nsep <- 1;
    t.root <- Node r

(* --- deletion ------------------------------------------------------------ *)

let min_leaf_entries t = t.order / 2
let min_node_children t = (t.order + 1) / 2

let can_lend t = function
  | Leaf l -> l.len > min_leaf_entries t
  | Node n -> n.nsep + 1 > min_node_children t

(* Rebalance child [i] of [p] after a removal left it under-occupied. *)
let fix_child t p i =
  let underflow =
    match p.kids.(i) with
    | Leaf l -> l.len < min_leaf_entries t
    | Node n -> n.nsep + 1 < min_node_children t
  in
  if underflow then begin
    let has_left = i > 0 and has_right = i < p.nsep in
    match p.kids.(i) with
    | Leaf c ->
      let sib j = match p.kids.(j) with Leaf s -> s | Node _ -> assert false in
      if has_left && can_lend t p.kids.(i - 1) then begin
        let l = sib (i - 1) in
        let last = l.len - 1 in
        leaf_open c 0;
        c.vals.(0) <- l.vals.(last);
        c.oids.(0) <- l.oids.(last);
        leaf_close l last;
        set_sep p (i - 1) c.vals.(0) c.oids.(0)
      end
      else if has_right && can_lend t p.kids.(i + 1) then begin
        let r = sib (i + 1) in
        c.vals.(c.len) <- r.vals.(0);
        c.oids.(c.len) <- r.oids.(0);
        c.len <- c.len + 1;
        leaf_close r 0;
        set_sep p i r.vals.(0) r.oids.(0)
      end
      else if has_left then begin
        let l = sib (i - 1) in
        leaf_move c 0 l;
        l.next <- c.next;
        node_close p (i - 1) 1
      end
      else if has_right then begin
        let r = sib (i + 1) in
        leaf_move r 0 c;
        c.next <- r.next;
        node_close p i 1
      end
    | Node c ->
      let sib j = match p.kids.(j) with Node s -> s | Leaf _ -> assert false in
      if has_left && can_lend t p.kids.(i - 1) then begin
        (* rotate right through the parent separator *)
        let l = sib (i - 1) in
        let ls = l.nsep - 1 in
        node_open c 0;
        c.kids.(1) <- c.kids.(0);
        c.kids.(0) <- l.kids.(ls + 1);
        set_sep c 0 p.svals.(i - 1) p.soids.(i - 1);
        set_sep p (i - 1) l.svals.(ls) l.soids.(ls);
        node_close l ls 1
      end
      else if has_right && can_lend t p.kids.(i + 1) then begin
        (* rotate left through the parent separator *)
        let r = sib (i + 1) in
        set_sep c c.nsep p.svals.(i) p.soids.(i);
        c.kids.(c.nsep + 1) <- r.kids.(0);
        c.nsep <- c.nsep + 1;
        set_sep p i r.svals.(0) r.soids.(0);
        node_close r 0 0
      end
      else if has_left then begin
        node_append (sib (i - 1)) p.svals.(i - 1) p.soids.(i - 1) c;
        node_close p (i - 1) 1
      end
      else if has_right then begin
        node_append c p.svals.(i) p.soids.(i) (sib (i + 1));
        node_close p i 1
      end
  end

let rec remove_rec t node v o =
  match node with
  | Leaf l ->
    let i = leaf_search l v o in
    if i < l.len && leaf_pair_cmp l i v o = 0 then begin
      leaf_close l i;
      t.n_pairs <- t.n_pairs - 1
    end
  | Node n ->
    let i = route n v o in
    remove_rec t n.kids.(i) v o;
    (* keep the separator exact: when the removed pair was the smallest of
       child [i], the separator now names the child's new smallest pair *)
    if i > 0 && sep_cmp n (i - 1) v o = 0 then begin
      let l = leftmost n.kids.(i) in
      set_sep n (i - 1) l.vals.(0) l.oids.(0)
    end;
    fix_child t n i

let remove t v o =
  remove_rec t t.root v o;
  (* collapse a root that lost all but one child *)
  match t.root with
  | Node n when n.nsep = 0 -> t.root <- n.kids.(0)
  | Node _ | Leaf _ -> ()

(* --- invariants ---------------------------------------------------------- *)

let check_invariants t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let leaves = ref [] in
  (* [lo] inclusive, [hi] exclusive pair bounds; returns the depth *)
  let rec check node ~is_root ~lo ~hi =
    let in_bounds v o =
      (match lo with Some (lv, lo) -> cmp_pair v o lv lo >= 0 | None -> true)
      && match hi with Some (hv, ho) -> cmp_pair v o hv ho < 0 | None -> true
    in
    match node with
    | Leaf l ->
      leaves := l :: !leaves;
      if (not is_root) && l.len < min_leaf_entries t then
        bad "leaf underflow: %d < %d" l.len (min_leaf_entries t);
      if l.len > t.order then bad "leaf overflow: %d" l.len;
      for i = 0 to l.len - 1 do
        if not (in_bounds l.vals.(i) l.oids.(i)) then
          bad "leaf pair out of separator bounds";
        if i > 0 && leaf_pair_cmp l (i - 1) l.vals.(i) l.oids.(i) >= 0 then
          bad "leaf pairs not strictly increasing"
      done;
      for i = l.len to Array.length l.vals - 1 do
        if l.vals.(i) != Value.Null then bad "leaf retains a vacated value"
      done;
      1
    | Node n ->
      let nc = n.nsep + 1 in
      if (not is_root) && nc < min_node_children t then
        bad "internal underflow: %d < %d" nc (min_node_children t);
      if is_root && nc < 2 then bad "internal root with < 2 children";
      if nc > t.order then bad "internal overflow: %d" nc;
      for i = 0 to n.nsep - 1 do
        if not (in_bounds n.svals.(i) n.soids.(i)) then
          bad "separator out of bounds";
        if i > 0 && sep_cmp n (i - 1) n.svals.(i) n.soids.(i) >= 0 then
          bad "separators not strictly increasing";
        (* each separator is the smallest pair of the child to its right *)
        let l = leftmost n.kids.(i + 1) in
        if l.len > 0 && sep_cmp n i l.vals.(0) l.oids.(0) <> 0 then
          bad "separator %s != child min %s" (Value.to_string n.svals.(i))
            (Value.to_string l.vals.(0))
      done;
      for i = n.nsep to Array.length n.svals - 1 do
        if n.svals.(i) != Value.Null || n.kids.(i + 1) != dead then
          bad "internal node retains a vacated entry"
      done;
      let sep i = Some (n.svals.(i), n.soids.(i)) in
      let depths =
        Array.init nc (fun i ->
            let lo = if i = 0 then lo else sep (i - 1) in
            let hi = if i = nc - 1 then hi else sep i in
            check n.kids.(i) ~is_root:false ~lo ~hi)
      in
      Array.iter
        (fun d -> if d <> depths.(0) then bad "non-uniform leaf depth")
        depths;
      depths.(0) + 1
  in
  try
    let (_ : int) = check t.root ~is_root:true ~lo:None ~hi:None in
    (* the leaf chain links exactly the tree's leaves, left to right *)
    let rec chain = function
      | [] -> ()
      | [ l ] ->
        if Option.is_some l.next then bad "leaf chain runs past the last leaf"
      | l :: (l' :: _ as rest) -> (
        match l.next with
        | Some n when n == l' -> chain rest
        | _ -> bad "leaf chain out of order")
    in
    let leaves = List.rev !leaves in
    chain leaves;
    let pairs = List.fold_left (fun acc l -> acc + l.len) 0 leaves in
    if pairs <> t.n_pairs then
      bad "cardinal mismatch: counted %d, recorded %d" pairs t.n_pairs;
    Ok ()
  with Bad msg -> Error msg
