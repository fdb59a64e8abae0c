(** An in-memory B+-tree over {!Value.t} keys, multi-valued (each key maps
    to a set of OIDs).

    Backs the substrate's {e ordered} secondary indexes: equality lookups
    like the hash index, plus range scans for the comparison predicates of
    {!Query}.  Keys are ordered by {!Value.compare} (numeric values compare
    across [Int]/[Float]).

    The implementation is a textbook B+-tree: values only in leaves, each
    leaf linked to its right sibling ([next] only) for range scans, node
    splitting on overflow and borrowing/merging on underflow.  The tree is
    keyed on (value, OID) pairs, so a value held by many objects is a run
    of adjacent pairs rather than a per-key OID set: a key with one object
    costs one pair, and {!find} reads the run off in OID order.  Nodes are
    fixed-capacity arrays plus a fill count, allocated once per node;
    insert, remove, split, borrow and merge shift entries in place with
    [Array.blit], so an update allocates nothing unless a node splits.
    [check_invariants] verifies structure and is exercised by the property
    tests. *)

type t

val create : ?order:int -> unit -> t
(** [order] is the maximum number of (key, oid) pairs per leaf and of
    children per internal node (default 16, minimum 4; smaller orders are
    useful in tests to force deep trees). *)

val insert : t -> Value.t -> Oid.t -> unit
(** Idempotent per (key, oid) pair. *)

val remove : t -> Value.t -> Oid.t -> unit
(** Removes one (key, oid) pair; the key disappears when its last OID
    goes.  Unknown pairs are ignored. *)

val find : t -> Value.t -> Oid.t list
(** OIDs under exactly this key, in OID order. *)

val range :
  t ->
  ?lo:Value.t * bool ->
  ?hi:Value.t * bool ->
  unit ->
  (Value.t * Oid.t list) list
(** [range t ~lo:(v, inclusive) ~hi:(w, inclusive) ()] returns the keys in
    [lo..hi] in ascending order with their OIDs.  Omitting a bound leaves
    that side open. *)

val min_key : t -> Value.t option
val max_key : t -> Value.t option

val cardinal : t -> int
(** Number of (key, oid) pairs. *)

val key_count : t -> int
(** Number of distinct keys. *)

val height : t -> int
(** 1 for a single leaf. *)

val iter : t -> (Value.t -> Oid.t list -> unit) -> unit
(** Ascending key order. *)

val clear : t -> unit

val check_invariants : t -> (unit, string) result
(** Structural validation: pair ordering, separator correctness, occupancy
    bounds, uniform leaf depth, leaf-chain consistency, and that no node
    keeps a reference in a slot past its fill count. *)
