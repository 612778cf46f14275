(** Main-memory T-trees with direct, indirect, or partial-key storage
    (Lehman–Carey [17]; §4.1 of the paper for the pkT variant).

    A T-tree is an AVL-balanced binary tree whose nodes each hold an
    ordered array of index keys; a node {e bounds} a search key when
    the key falls between its first and last entries.  Lookups use the
    single-comparison-per-level optimisation of [17]/§5.2: descent
    compares only each node's {e leftmost} key, remembering the last
    node left via a greater-than branch; the final in-node search runs
    there.

    Scheme differences mirror the B-tree: direct = inline key bytes;
    indirect = record pointer only (one dereference per level — the
    design of [17]); partial = pkT-tree, where each entry stores
    fixed-size partial-key information, the leftmost key's base is the
    {e parent's} leftmost key, and FINDTTREE (Fig. 7) + FINDNODE drive
    the search. *)

type t

type config = {
  scheme : Layout.scheme;
  node_bytes : int;
  naive_search : bool;  (** Partial only: naive in-node linear search (A3). *)
  layout : Layout.policy;
      (** Node placement of bulk loads ([of_sorted]); incremental
          inserts always bump-allocate. *)
}

val default_config : Layout.scheme -> config
(** 192-byte nodes, FINDNODE search, flat layout. *)

val create : Pk_mem.Mem.t -> Pk_records.Record_store.t -> config -> t

val scheme : t -> Layout.scheme
val record_store : t -> Pk_records.Record_store.t

val insert : t -> Pk_keys.Key.t -> rid:int -> bool
val lookup : t -> Pk_keys.Key.t -> int option
(** Record address of the exact key, if present: a one-probe
    {!lookup_into} (FINDTTREE, Fig. 7) through the same per-node hooks
    as a batch. *)

val delete : t -> Pk_keys.Key.t -> bool

(** {2 Batched access path} *)

val lookup_into : t -> Pk_keys.Key.t array -> int array -> unit
(** Group descent: the sorted batch shares the one
    comparison-per-level against each node's leftmost key, splitting
    into (left, bounded-here, right) segments; the per-probe state is
    the last greater-than ancestor and, for the partial scheme, the
    FINDNODE (rel, offset) pair.  [-1] = absent.  See
    {!Btree.lookup_into} for the contract. *)

val insert_batch : t -> Pk_keys.Key.t array -> rids:int array -> bool array
val delete_batch : t -> Pk_keys.Key.t array -> bool array

val bulk_load : t -> ?gap:float -> ?fill:float -> (Pk_keys.Key.t * int) array -> unit
(** Bottom-up build from strictly ascending (key, rid) pairs into an
    empty index: keys are chunked to [fill] (clamped to [0.5, 1.0]) of
    node capacity and the chunks arranged as a midpoint-balanced BST
    (the rightmost — possibly short — chunk always lands as a leaf or
    half-leaf, so Lehman–Carey occupancy holds).  [gap] overrides
    [fill] when given (see {!Layout.gap_fill}).  Partial keys follow
    the §4.1 base rules. *)

val compact : t -> ?gap:float -> unit -> Layout.Placement.t option
(** Rebuild the live tree through the bulk-load pipeline in place
    (default [gap] 0.1) under one unwind scope; [None] when empty. *)

val iter : t -> (key:Pk_keys.Key.t -> rid:int -> unit) -> unit
val range :
  t -> lo:Pk_keys.Key.t -> hi:Pk_keys.Key.t -> (key:Pk_keys.Key.t -> rid:int -> unit) -> unit

val seq_from : t -> Pk_keys.Key.t -> (Pk_keys.Key.t * int) Seq.t
(** Lazy ascending cursor over (key, record address) starting at the
    first key >= the argument.  Reads the live tree; behaviour under
    concurrent modification is unspecified. *)

val count : t -> int
val height : t -> int
val node_count : t -> int
val space_bytes : t -> int
val entry_capacity : t -> int

val deref_count : t -> int
val node_visits : t -> int
val reset_counters : t -> unit

val validate : t -> unit
(** Checks ordering, AVL balance, stored heights, bounding-range
    disjointness, minimum occupancy of internal nodes, and — for the
    partial scheme — that every stored partial key re-derives from the
    record keys under the pkT base rules. *)

val wrap : t -> tag:string -> Engine.ops
(** The full access-path record over this tree, assembled by
    {!module:Engine.Make}. *)
