module Db = Oodb.Db
module Value = Oodb.Value
module Errors = Oodb.Errors

let one_arg meth = function
  | [ v ] -> v
  | args -> Errors.type_error "%s expects 1 argument, got %d" meth (List.length args)

(* Each accessor closure memoizes a resolved slot handle for its attribute:
   the first invocation resolves against the receiver's class, subsequent
   ones go straight to the compiled slot.  The handle self-validates against
   each receiver's layout (falling back to by-name resolution), so one
   memoized handle is safe across subclasses, schema evolution and even
   databases. *)
let memo_slot attr =
  let slot = ref None in
  fun db self ->
    match !slot with
    | Some s -> s
    | None ->
      let s = Db.resolve db (Db.class_of db self) attr in
      slot := Some s;
      s

let setter attr =
  let resolve = memo_slot attr in
  fun db self args ->
    Db.slot_set db self (resolve db self) (one_arg attr args);
    Value.Null

let getter attr =
  let resolve = memo_slot attr in
  fun db self _args -> Db.slot_get db self (resolve db self)

let apply_ops db ops =
  List.iter (fun (oid, meth, args) -> ignore (Db.send db oid meth args)) ops
