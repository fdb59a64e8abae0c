(** Helpers for defining workload classes: standard setter/getter method
    bodies so each scenario module declares its schema compactly. *)

val setter : string -> Oodb.Schema.method_impl
(** [setter attr] assigns its single argument to [attr] and returns [Null]. *)

val getter : string -> Oodb.Schema.method_impl
(** [getter attr] ignores its arguments and returns the attribute. *)

val apply_ops : Oodb.Db.t -> (Oodb.Oid.t * string * Oodb.Value.t list) list -> unit
(** Send each operation in order. *)

val one_arg : string -> Oodb.Value.t list -> Oodb.Value.t
(** Arity check for single-argument method bodies.
    @raise Oodb.Errors.Type_error on any other arity. *)
