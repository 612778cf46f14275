(** Prefix B+-tree (Bayer & Unterauer 1977) — the key-compression
    alternative the paper argues against in §2.

    A B+-tree over slotted variable-size nodes: leaves hold every key
    (as a suffix relative to the node's common prefix) plus its record
    pointer and are linked for scans; internal nodes hold truncated
    {e separators} — the shortest byte string greater than everything
    on the left and at most the right subtree's minimum.

    The paper's four §2 contrasts, all observable here:

    - entries are variable-sized, so nodes need slot directories and
      update-time repacking (partial-key entries are fixed-size);
    - separators/suffixes are lossless — no record dereferences, ever
      (partial keys trade rare dereferences for fixed size);
    - low-entropy keys can yield long separators, so the branching
      factor — and hence tree height — degrades with the key
      distribution (a partial-key entry never exceeds 12 + l bytes);
    - a single separator longer than a node cannot be stored at all
      ([insert] raises, where a pkB-tree would carry on).

    Updates materialise and repack the touched nodes — simple and
    correct; lookups are in-place and cache-charged, which is what the
    comparison benchmark (A8) measures. *)

type t

type config = {
  node_bytes : int;
  layout : Layout.policy;
      (** Node placement of bulk loads ([of_sorted]); incremental
          inserts always bump-allocate. *)
}

val default_config : config
(** 192-byte nodes, flat layout. *)

val create : Pk_mem.Mem.t -> Pk_records.Record_store.t -> config -> t

val insert : t -> Pk_keys.Key.t -> rid:int -> bool
(** Raises [Invalid_argument] when a key/separator cannot fit a node
    even alone. *)

val lookup : t -> Pk_keys.Key.t -> int option
(** A one-probe {!lookup_into}. *)

val delete : t -> Pk_keys.Key.t -> bool

(** {2 Batched access path} *)

val lookup_into : t -> Pk_keys.Key.t array -> int array -> unit
(** Group descent over the sorted batch ([-1] = absent); each node's
    prefix and slot directory are touched once per batch.  See
    {!Btree.lookup_into} for the contract. *)

val insert_batch : t -> Pk_keys.Key.t array -> rids:int array -> bool array
val delete_batch : t -> Pk_keys.Key.t array -> bool array

val bulk_load : t -> ?gap:float -> ?fill:float -> (Pk_keys.Key.t * int) array -> unit
(** Bottom-up build from strictly ascending (key, rid) pairs into an
    empty index: leaves are packed greedily to [fill] (clamped to
    [0.5, 1.0]) of the node byte budget and chained; internal levels
    promote one truncated separator between adjacent children.  [gap]
    overrides [fill] when given (see {!Layout.gap_fill}). *)

val compact : t -> ?gap:float -> unit -> Layout.Placement.t option
(** Rebuild the live tree through the bulk-load pipeline in place
    (default [gap] 0.1) under one unwind scope; [None] when empty. *)

val iter : t -> (key:Pk_keys.Key.t -> rid:int -> unit) -> unit
val range :
  t -> lo:Pk_keys.Key.t -> hi:Pk_keys.Key.t -> (key:Pk_keys.Key.t -> rid:int -> unit) -> unit
val seq_from : t -> Pk_keys.Key.t -> (Pk_keys.Key.t * int) Seq.t

val count : t -> int
val height : t -> int
val node_count : t -> int
val space_bytes : t -> int
val deref_count : t -> int
(** Always 0 — the whole point of lossless compression; present for
    interface parity. *)

val node_visits : t -> int
val reset_counters : t -> unit

val max_separator_len : t -> int
(** Longest separator currently stored in an internal node — the §2
    "may not even fit in a cache line" hazard, reported by A8. *)

val validate : t -> unit

val wrap : t -> tag:string -> Engine.ops
(** The full access-path record over this tree, assembled by
    {!module:Engine.Make}. *)
