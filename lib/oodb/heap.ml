(* Raw heap mutations shared by Db (the logging, event-raising front door)
   and Transaction (undo replay).  Nothing here logs undo records or raises
   events; callers are responsible for that.

   An object's attributes live in its slot array ([obj.slots]), addressed
   through its class layout; a slot holding [Types.absent] has no binding.
   The name-based accessors below resolve the name to a slot first. *)

open Types

let find_obj db oid =
  match Oid.Table.find_opt db.objects oid with
  | None -> raise (Errors.No_such_object oid)
  | Some o when not o.alive -> raise (Errors.Dead_object oid)
  | Some o -> o

let find_obj_any db oid =
  (* Used by undo replay, which may legitimately touch dead objects. *)
  match Oid.Table.find_opt db.objects oid with
  | None -> raise (Errors.No_such_object oid)
  | Some o -> o

let class_info db cls =
  match Hashtbl.find_opt db.class_info cls with
  | Some i -> i
  | None -> raise (Errors.No_such_class cls)

let extent_table db cls =
  match Hashtbl.find_opt db.extents cls with
  | Some t -> t
  | None ->
    let t = Oid.Table.create 16 in
    Hashtbl.replace db.extents cls t;
    t

let add_to_extent db cls oid = Oid.Table.replace (extent_table db cls) oid ()
let remove_from_extent db cls oid = Oid.Table.remove (extent_table db cls) oid

(* All indexes that cover attribute [attr] of an instance whose runtime class
   is [cls]: an index declared on (C, a) covers instances of C and of every
   subclass of C. *)
let covering_indexes db cls attr =
  List.filter_map
    (fun c -> Hashtbl.find_opt db.indexes (c, attr))
    (Schema.ancestry db cls)

(* Per-slot covering lookup: cached per layout slot, refreshed when the
   database's index generation moved. *)
let covering_of_slot db (ly : layout) i =
  if ly.ly_ix_stamp <> db.index_gen then begin
    Array.iteri
      (fun j name -> ly.ly_covering.(j) <- covering_indexes db ly.ly_class name)
      ly.ly_names;
    ly.ly_ix_stamp <- db.index_gen
  end;
  Array.unsafe_get ly.ly_covering i

let index_remove ix v oid =
  match ix.ix_backing with
  | Ix_hash entries -> (
    match Hashtbl.find_opt entries v with
    | None -> ()
    | Some p ->
      let p' = Posting.remove p oid in
      if Posting.is_empty p' then Hashtbl.remove entries v
      else if p' != p then Hashtbl.replace entries v p')
  | Ix_ordered tree -> Btree.remove tree v oid

let index_add ix v oid =
  match ix.ix_backing with
  | Ix_hash entries ->
    let p =
      match Hashtbl.find_opt entries v with Some p -> p | None -> Posting.empty
    in
    let p' = Posting.add p oid in
    if p' != p then Hashtbl.replace entries v p'
  | Ix_ordered tree -> Btree.insert tree v oid

(* --- store access -------------------------------------------------------- *)

let layout_of (o : obj) = o.info.ri_layout

(* Slot index of [name] in the object's layout, or -1. *)
let slot_by_name (o : obj) name =
  match Hashtbl.find_opt (layout_of o).ly_by_name name with
  | Some i -> i
  | None -> -1

let obj_get (o : obj) name =
  match Hashtbl.find_opt (layout_of o).ly_by_name name with
  | None -> None
  | Some i ->
    let v = Array.unsafe_get o.slots i in
    if v == absent then None else Some v

let iter_attrs f (o : obj) =
  let names = (layout_of o).ly_names in
  Array.iteri (fun i v -> if v != absent then f names.(i) v) o.slots

let sorted_attrs (o : obj) =
  let acc = ref [] in
  iter_attrs (fun k v -> acc := (k, v) :: !acc) o;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* Write without index maintenance or undo logging: object construction and
   schema-evolution plumbing.  @raise No_such_attribute when the layout has
   no slot for [name]. *)
let store_put_raw (o : obj) name v =
  let i = slot_by_name o name in
  if i < 0 then raise (Errors.No_such_attribute (o.cls, name))
  else o.slots.(i) <- v

(* Lenient variant for snapshot loading: an attribute the current layout
   does not declare is dropped. *)
let store_put_loose (o : obj) name v =
  let i = slot_by_name o name in
  if i >= 0 then o.slots.(i) <- v

let store_remove_raw (o : obj) name =
  let i = slot_by_name o name in
  if i >= 0 then o.slots.(i) <- absent

(* --- construction -------------------------------------------------------- *)

(* A fresh object of [info]'s class: [`Slots a] takes a slot array laid out
   by the class (object creation fills a copy of the defaults), [`Empty]
   starts all-absent (snapshot loading, which replays the saved attributes
   on top). *)
let make_obj ~id ~cls ~info ~seed ~consumers =
  {
    id;
    cls;
    info;
    slots =
      (match seed with
      | `Slots a -> a
      | `Empty -> Array.make (Array.length info.ri_layout.ly_defaults) absent);
    consumers;
    alive = true;
    dirty_gen = 0;
  }

(* --- mutation ------------------------------------------------------------ *)

(* Dirty tracking for incremental checkpoints: the generation stamp keeps
   the steady-state cost of re-touching an already-dirty object to one
   load+compare; the hashtable write happens once per object per epoch. *)
let mark_dirty db (o : obj) =
  if o.dirty_gen <> db.ckpt_gen then begin
    o.dirty_gen <- db.ckpt_gen;
    Oid.Table.replace db.dirty o.id ()
  end

let clear_dirty db =
  Oid.Table.reset db.dirty;
  Oid.Table.reset db.dirty_dead;
  db.ckpt_gen <- db.ckpt_gen + 1

(* Set or remove ([v = None]) the attribute at slot [i], keeping covering
   indexes in sync.  Returns the previous binding. *)
let raw_set_slot db (o : obj) i v =
  mark_dirty db o;
  let slots = o.slots in
  let cur = Array.unsafe_get slots i in
  let old = if cur == absent then None else Some cur in
  let ixs = covering_of_slot db (layout_of o) i in
  (match (ixs, old) with
  | [], _ | _, None -> ()
  | ixs, Some ov -> List.iter (fun ix -> index_remove ix ov o.id) ixs);
  (match v with
  | Some nv ->
    Array.unsafe_set slots i nv;
    if ixs <> [] then List.iter (fun ix -> index_add ix nv o.id) ixs
  | None -> Array.unsafe_set slots i absent);
  old

(* Set or remove ([v = None]) an attribute by name: resolve the slot, then
   [raw_set_slot].  Returns the previous binding. *)
let raw_set_attr db (o : obj) name v =
  let i = slot_by_name o name in
  if i >= 0 then raw_set_slot db o i v
  else
    match v with
    | None -> None (* removing an attribute the layout never had *)
    | Some _ -> raise (Errors.No_such_attribute (o.cls, name))

let index_all_attrs db o =
  iter_attrs
    (fun name v ->
      List.iter (fun ix -> index_add ix v o.id) (covering_indexes db o.cls name))
    o

let unindex_all_attrs db o =
  iter_attrs
    (fun name v ->
      List.iter
        (fun ix -> index_remove ix v o.id)
        (covering_indexes db o.cls name))
    o

let insert_obj db o =
  Oid.Table.replace db.objects o.id o;
  add_to_extent db o.cls o.id;
  index_all_attrs db o;
  mark_dirty db o;
  (* undo of a delete resurrects the OID: it is live again, not dead *)
  Oid.Table.remove db.dirty_dead o.id

let remove_obj db o =
  unindex_all_attrs db o;
  remove_from_extent db o.cls o.id;
  Oid.Table.remove db.objects o.id;
  Oid.Table.remove db.dirty o.id;
  o.dirty_gen <- 0;
  Oid.Table.replace db.dirty_dead o.id ()

(* --- schema evolution support -------------------------------------------- *)

(* Re-point an object at its class's freshly computed info, rewriting the
   slot array when the layout's attribute set changed.  Values are carried
   by symbol; slots new to the layout start absent (Evolution backfills and
   indexes them explicitly), and values whose slot disappeared are dropped
   (Evolution unindexed them before the spec change). *)
let migrate_obj (o : obj) (ninfo : class_info) =
  let oly = o.info.ri_layout and nly = ninfo.ri_layout in
  if oly != nly && oly.ly_syms <> nly.ly_syms then begin
    let fresh = Array.make (Array.length nly.ly_syms) absent in
    Array.iteri
      (fun i s ->
        match Hashtbl.find_opt oly.ly_by_sym s with
        | Some j -> fresh.(i) <- o.slots.(j)
        | None -> ())
      nly.ly_syms;
    o.slots <- fresh
  end;
  o.info <- ninfo
