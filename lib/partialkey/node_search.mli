(** In-node search over partial-key entries: procedure FINDNODE
    (Fig. 5) with the FINDBITTREE fallback (§3.3, after Ferguson's Bit
    Trees), plus the naive linear search of §3.3 used as an ablation
    baseline.

    The algorithms are generic over the node representation through
    {!type:entry_ops}; the index structures instantiate it with
    accessors that read entry fields from arena nodes (charging the
    cache simulator as a side effect). *)

type entry_ops = {
  mutable num_keys : int;
      (** Mutable so a batched descent can re-aim one [entry_ops]
          record at successive nodes without allocating. *)
  pk_off : int -> int;
      (** Difference-unit offset of entry [i] w.r.t. its base (the
          previous entry; entry 0's base precedes the node). *)
  resolve_units : int -> rel:Pk_keys.Key.cmp -> off:int -> int;
      (** Value-unit resolution for entry [i] when [pk_off i = off],
          packed (wraps {!val:Pk_compare.resolve_by_units} over the
          stored bits of entry [i]). *)
  branch_unit : int -> int;
      (** The index key's unit value at its difference offset: [1] for
          bit granularity (in-node keys ascend), the stored difference
          byte for byte granularity, or [-1] when unavailable (byte
          granularity with [l = 0]).  Drives the FINDBITTREE walk. *)
  search_unit : int -> int;
      (** Unit of the {e search key} at a given offset (0 past its
          end). *)
  deref : int -> int;
      (** Full comparison of the search key against entry [i]'s record
          key, packed ({!Pk_keys.Key.pack}): [c(search, key_i)] and
          [d(search, key_i)] in units.  This is the expensive operation
          (a cache miss in the paper); the algorithms count every
          call. *)
  mutable low : int;
      (** Result: search key is (definitely) greater than entry [low];
          [-1] = below every entry. *)
  mutable high : int;
      (** Result: search key is less than entry [high]; [num_keys] =
          above all.  [low = high] signals an exact match at that
          position. *)
  mutable off_low : int;
      (** Result: [d(search, key_low)] — or the incoming [off0] when
          [low = -1].  Propagated to the child whose leftmost key has
          [key_low] as base. *)
  mutable derefs : int;  (** Result: record-key dereferences performed. *)
}
(** The accessors a search reads a node through, and the int fields
    its result lands in: one record per tree, re-aimed per node, so a
    search allocates nothing. *)

val make :
  pk_off:(int -> int) ->
  resolve_units:(int -> rel:Pk_keys.Key.cmp -> off:int -> int) ->
  branch_unit:(int -> int) ->
  search_unit:(int -> int) ->
  deref:(int -> int) ->
  entry_ops
(** An ops record with [num_keys = 0] and a cleared result. *)

val find_node : entry_ops -> rel0:Pk_keys.Key.cmp -> off0:int -> unit
(** FINDNODE: one partial-key sweep tracking definite bounds; if the
    sweep leaves an ambiguous zone, FINDBITTREE resolves it with (in
    the common case) a single dereference.  [rel0]/[off0] describe the
    search key vs the base of entry 0 ([Gt] in tree descents; [Eq]
    only for the degenerate all-zero search key).  The result is left
    in the ops record's [low], [high], [off_low] and [derefs]; the
    search allocates nothing. *)

val naive_find_node : entry_ops -> rel0:Pk_keys.Key.cmp -> off0:int -> unit
(** The "simple linear search" of §3.3: every unresolved comparison
    dereferences immediately.  Functionally identical results; more
    dereferences (ablation A3). *)
