(** Main-memory B-trees with direct, indirect, or partial-key storage
    (§4.2, §5.2 of the paper).

    A classic B-tree (Bayer–McCreight): every node holds sorted index
    keys, internal nodes additionally hold [num_keys + 1] child
    pointers, and every index key carries a pointer to its data record.
    Nodes are fixed-size byte blocks in an arena (default three L2
    blocks), so branching factors are byte-exact replicas of the
    paper's.

    The three key-storage schemes share all structural code and differ
    only in entry layout and comparison:

    - [Direct]: full key inline; in-node binary search on inline
      bytes.
    - [Indirect]: record pointer only; binary search dereferencing a
      record per probe (a cache miss each, ~lg N per lookup).
    - [Partial]: pkB-tree — FINDBTREE descent (Fig. 8) using FINDNODE
      per node, at most one dereference per node and usually none.

    Partial-key maintenance under inserts, splits, deletes, borrows and
    merges follows §4.2; [validate] re-derives every partial key from
    record keys and checks it, along with the structural invariants. *)

type t

type config = {
  scheme : Layout.scheme;
  node_bytes : int;      (** e.g. [3 * 64]. *)
  naive_search : bool;
      (** Partial scheme only: use the naive linear in-node search of
          §3.3 (dereference on every unresolved compare) instead of
          FINDNODE — ablation A3. *)
  layout : Layout.policy;
      (** Node placement of bulk loads ([of_sorted]); incremental
          inserts always bump-allocate. *)
}

val default_config : Layout.scheme -> config
(** 192-byte nodes, FINDNODE search, flat layout. *)

val create : Pk_mem.Mem.t -> Pk_records.Record_store.t -> config -> t
(** Raises [Invalid_argument] if the node size cannot hold at least two
    entries per internal node under the chosen scheme. *)

val scheme : t -> Layout.scheme
val record_store : t -> Pk_records.Record_store.t

val insert : t -> Pk_keys.Key.t -> rid:int -> bool
(** [insert t key ~rid] indexes [rid] (a record address whose stored
    key must equal [key]).  Returns [false] (and changes nothing) when
    the key is already present.  For [Direct] schemes the key length
    must equal the configured one. *)

val lookup : t -> Pk_keys.Key.t -> int option
(** Record address of the exact key, if present: a one-probe
    {!lookup_into} (FINDBTREE, Fig. 8) through the same per-node hooks
    as a batch, so its dereference and visit counts are a one-key
    batch's. *)

val delete : t -> Pk_keys.Key.t -> bool
(** Removes the key; [false] when absent. *)

(** {2 Batched access path} *)

val lookup_into : t -> Pk_keys.Key.t array -> int array -> unit
(** [lookup_into t keys out] resolves every probe in one {e group
    descent}: the batch is sorted once (by permutation, in scratch
    owned by [t]) and the tree is descended level by level with the
    batch partitioned across children, so each node is touched once
    per batch.  [out.(i)] receives the record address of [keys.(i)],
    or [-1] when absent; [out] must be at least as long as [keys].
    Steady-state calls perform no per-probe heap allocation under any
    scheme.  Counter semantics are preserved:
    dereference counts equal the sum over probes of the single-lookup
    cost, node visits are counted once per (node, batch).  A one-key
    batch skips the sort and descends its probe alone. *)

val insert_batch : t -> Pk_keys.Key.t array -> rids:int array -> bool array
(** Apply the inserts in sorted key order under one unwind scope:
    observationally equal to single inserts in batch order, and
    batch-atomic under fault unwinding.  [res.(i)] is [insert]'s
    result for [keys.(i)]. *)

val delete_batch : t -> Pk_keys.Key.t array -> bool array

val bulk_load : t -> ?gap:float -> ?fill:float -> (Pk_keys.Key.t * int) array -> unit
(** [bulk_load t ~fill entries] builds the tree bottom-up from a
    strictly ascending (key, rid) array into an {e empty} index: leaf
    and internal nodes are packed to [fill] (clamped to [0.5, 1.0]) of
    capacity and partial keys are derived directly from sorted
    neighbours (Theorem 3.1).  [gap] overrides [fill] when given (see
    {!Layout.gap_fill}).  Raises [Invalid_argument] on a non-empty
    index or unsorted input. *)

val compact : t -> ?gap:float -> unit -> Layout.Placement.t option
(** Rebuild the live tree through the bulk-load pipeline in place
    (default [gap] 0.1) under one unwind scope; [None] when empty. *)

val iter : t -> (key:Pk_keys.Key.t -> rid:int -> unit) -> unit
(** In ascending key order.  Keys are read from records for non-direct
    schemes. *)

val range : t -> lo:Pk_keys.Key.t -> hi:Pk_keys.Key.t -> (key:Pk_keys.Key.t -> rid:int -> unit) -> unit
(** Inclusive range scan in ascending order. *)

val seq_from : t -> Pk_keys.Key.t -> (Pk_keys.Key.t * int) Seq.t
(** Lazy ascending cursor over (key, record address) starting at the
    first key >= the argument.  Reads the live tree; behaviour under
    concurrent modification is unspecified. *)

val count : t -> int
val height : t -> int
(** Levels from root to leaf; 0 for an empty tree. *)

val node_count : t -> int
val space_bytes : t -> int
(** Live bytes of the node region (index storage, excluding records). *)

val leaf_capacity : t -> int
val internal_capacity : t -> int

val deref_count : t -> int
(** Cumulative record-key dereferences performed by [lookup] calls. *)

val node_visits : t -> int
val reset_counters : t -> unit

val validate : t -> unit
(** Full invariant check; raises [Failure] with a description on any
    violation.  O(n) with record reads — for tests. *)

val wrap : t -> tag:string -> Engine.ops
(** The full access-path record over this tree, assembled by
    {!module:Engine.Make}. *)
