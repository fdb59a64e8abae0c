open Types

let check ?(quiescent = false) (db : Db.t) =
  let problems = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in

  if quiescent && Transaction.in_progress db then
    complain "transaction still in progress";

  (* objects vs classes and extents *)
  Oid.Table.iter
    (fun oid (o : obj) ->
      if not o.alive then complain "%s: dead object in table" (Oid.to_string oid)
      else if not (Db.has_class db o.cls) then
        complain "%s: unregistered class %s" (Oid.to_string oid) o.cls
      else begin
        (* extent membership *)
        (match Hashtbl.find_opt db.extents o.cls with
        | Some ext when Oid.Table.mem ext oid -> ()
        | _ ->
          complain "%s: missing from extent of %s" (Oid.to_string oid) o.cls);
        (* the denormalized info pointer must be the registered one *)
        (match Hashtbl.find_opt db.class_info o.cls with
        | Some ci when ci != o.info ->
          complain "%s: stale class_info cache" (Oid.to_string oid)
        | _ -> ());
        (* slot store must match the layout; checked before the attribute
           walk, which addresses slots through the layout *)
        let n = Array.length o.info.ri_layout.ly_names in
        if Array.length o.slots <> n then
          complain "%s: slot array has %d slots but layout has %d"
            (Oid.to_string oid) (Array.length o.slots) n
        else begin
          (* attribute set = declared set *)
          let spec = Schema.all_attrs db o.cls in
          List.iter
            (fun (attr, _) ->
              match Heap.obj_get o attr with
              | None ->
                complain "%s: declared attribute %s missing" (Oid.to_string oid)
                  attr
              | Some _ -> ())
            spec;
          Heap.iter_attrs
            (fun attr _ ->
              if not (List.mem_assoc attr spec) then
                complain "%s: undeclared attribute %s present"
                  (Oid.to_string oid) attr)
            o
        end
      end)
    db.objects;

  (* extents point at live objects of the right class *)
  Hashtbl.iter
    (fun cls extent ->
      Oid.Table.iter
        (fun oid () ->
          match Oid.Table.find_opt db.objects oid with
          | None ->
            complain "extent %s: dangling entry %s" cls (Oid.to_string oid)
          | Some o when o.cls <> cls ->
            complain "extent %s: %s actually of class %s" cls (Oid.to_string oid)
              o.cls
          | Some _ -> ())
        extent)
    db.extents;

  (* indexes agree with the data *)
  Hashtbl.iter
    (fun (cls, attr) ix ->
      let indexed_pairs =
        match ix.ix_backing with
        | Ix_hash entries ->
          Hashtbl.fold
            (fun v p acc ->
              List.fold_left (fun acc oid -> (v, oid) :: acc) acc
                (Posting.to_list p))
            entries []
        | Ix_ordered tree ->
          (match Btree.check_invariants tree with
          | Ok () -> ()
          | Error msg -> complain "index %s.%s: btree invariant: %s" cls attr msg);
          let out = ref [] in
          Btree.iter tree (fun v oids ->
              List.iter (fun oid -> out := (v, oid) :: !out) oids);
          !out
      in
      (* every index entry matches the object *)
      List.iter
        (fun (v, oid) ->
          if not (Db.exists db oid) then
            complain "index %s.%s: entry for missing object %s" cls attr
              (Oid.to_string oid)
          else
            match Db.get_opt db oid attr with
            | Some actual when Value.equal actual v -> ()
            | Some actual ->
              complain "index %s.%s: %s indexed under %s but holds %s" cls attr
                (Oid.to_string oid) (Value.to_string v) (Value.to_string actual)
            | None ->
              complain "index %s.%s: %s indexed but attribute absent" cls attr
                (Oid.to_string oid))
        indexed_pairs;
      (* every matching object is indexed *)
      let indexed_oids = Oid.Table.create 64 in
      List.iter
        (fun (_, oid) -> Oid.Table.replace indexed_oids oid ())
        indexed_pairs;
      List.iter
        (fun oid ->
          match Db.get_opt db oid attr with
          | Some _ when not (Oid.Table.mem indexed_oids oid) ->
            complain "index %s.%s: live object %s not indexed" cls attr
              (Oid.to_string oid)
          | _ -> ())
        (Db.extent db ~deep:true cls))
    db.indexes;

  match List.rev !problems with [] -> Ok () | ps -> Error ps

let check_exn ?quiescent db =
  match check ?quiescent db with
  | Ok () -> ()
  | Error (p :: _) -> raise (Errors.Transaction_error ("integrity: " ^ p))
  | Error [] -> ()
