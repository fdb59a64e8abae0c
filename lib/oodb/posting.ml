(* Compact OID sets for hash-index keys.  Most keys of a secondary index
   hold one object (a unique attribute) or a handful; a table per key would
   cost at least 16 buckets each, so those forms keep the OIDs inline and
   only a large set becomes a table.  The large form shrinks back to an
   array at half the threshold, so a set hovering at the threshold does not
   rebuild a table on every update. *)

type t =
  | Empty
  | One of Oid.t
  | Few of Oid.t array (* sorted, 2 .. max_few OIDs *)
  | Many of unit Oid.Table.t (* more than max_few / 2 OIDs *)

let max_few = 8
let empty = Empty
let is_empty = function Empty -> true | One _ | Few _ | Many _ -> false
let same (a : Oid.t) (b : Oid.t) = (a :> int) = (b :> int)

(* Index of [o] in a sorted array, or its insertion point. *)
let search (a : Oid.t array) (o : Oid.t) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (a.(mid) :> int) < (o :> int) then lo := mid + 1 else hi := mid
  done;
  !lo

let sorted_keys tbl =
  let a = Array.of_seq (Oid.Table.to_seq_keys tbl) in
  Array.sort Oid.compare a;
  a

let add p o =
  match p with
  | Empty -> One o
  | One x ->
    if same x o then p
    else if (x :> int) < (o :> int) then Few [| x; o |]
    else Few [| o; x |]
  | Few a ->
    let n = Array.length a in
    let i = search a o in
    if i < n && same a.(i) o then p
    else if n < max_few then begin
      let b = Array.make (n + 1) o in
      Array.blit a 0 b 0 i;
      Array.blit a i b (i + 1) (n - i);
      Few b
    end
    else begin
      let tbl = Oid.Table.create (2 * max_few) in
      Array.iter (fun x -> Oid.Table.replace tbl x ()) a;
      Oid.Table.replace tbl o ();
      Many tbl
    end
  | Many tbl ->
    Oid.Table.replace tbl o ();
    p

let remove p o =
  match p with
  | Empty -> p
  | One x -> if same x o then Empty else p
  | Few a ->
    let n = Array.length a in
    let i = search a o in
    if not (i < n && same a.(i) o) then p
    else if n = 2 then One a.(1 - i)
    else begin
      let b = Array.make (n - 1) a.(0) in
      Array.blit a 0 b 0 i;
      Array.blit a (i + 1) b i (n - i - 1);
      Few b
    end
  | Many tbl ->
    Oid.Table.remove tbl o;
    if Oid.Table.length tbl > max_few / 2 then p else Few (sorted_keys tbl)

let to_list = function
  | Empty -> []
  | One x -> [ x ]
  | Few a -> Array.to_list a
  | Many tbl -> Array.to_list (sorted_keys tbl)
