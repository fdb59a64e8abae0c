(** The set of OIDs stored under one key of a hash index.

    Sized to its contents: a key held by one object stores that OID
    directly, a small set is a sorted array, and only a large set pays for
    an {!Oid.Table}.  Values are immutable except in the large form, so
    {!add} and {!remove} return the posting to store back under the key. *)

type t

val empty : t

val add : t -> Oid.t -> t
(** Idempotent. *)

val remove : t -> Oid.t -> t
(** Removing an absent OID returns the posting unchanged.  An index drops
    a key whose posting became {!is_empty}. *)

val is_empty : t -> bool

val to_list : t -> Oid.t list
(** In OID order. *)
