(** Partial-key comparison: procedure COMPAREPARTKEY (Fig. 3) with the
    EQ-propagation semantics of Appendix A.

    A comparison is driven by a {e state} [(rel, off)] describing what
    is known about the search key relative to the {e base key} of the
    index key about to be examined (the key visited immediately before
    it):

    - [rel = Lt | Gt]: the search key compared [rel] to the base key
      and [off = d(search, base)], the offset of their first differing
      unit.  The tree guarantees the index key compares the same way to
      the base ([c(k_j, k_b) = c(k_i, k_b)], §3.2), so Theorem 3.1
      applies.
    - [rel = Eq]: the previous comparison was {e unresolved}; the
      search key and the base key (that previous, still-unresolved
      index key) are known to agree on their first [off] units, the
      ordering is unknown, and the index key is greater than the base
      (in-node keys ascend).

    The result has the same shape: [Lt]/[Gt] are {e definite} orderings
    of search vs index key with [off = d(search, index)]; [Eq] means
    unresolved with [off] units known to agree.  Definite equality is
    only ever established by dereferencing the record key.

    Correctness requires the indexed key set to be prefix-free when key
    lengths vary (see {!module:Partial_key}); the implementation claims
    [Lt]/[Gt] only on a definite stored-unit mismatch and degrades to
    [Eq] (forcing a dereference) in every boundary case.

    Every function here returns its outcome packed into one int
    ({!Pk_keys.Key.pack}: [(off lsl 2) lor code]), so a lookup resolves
    partial keys without touching the OCaml heap. *)

val need_units : int
(** Returned by {!resolve_by_offset} when the difference offsets
    coincide and the stored value units must be consulted ([pk_off =
    off], steps 7-14 of Fig. 3).  Negative, so it is never a packed
    result. *)

val resolve_by_offset : rel:Pk_keys.Key.cmp -> off:int -> pk_off:int -> int
(** Offset-only resolution: Theorem 3.1 (steps 1-6 of Fig. 3) for
    [rel = Lt/Gt], Appendix A cases 1-2 for [rel = Eq].  Never touches
    key value bits.  A packed [(cmp, off)] or {!need_units}. *)

val resolve_by_units :
  Partial_key.granularity ->
  search:Pk_keys.Key.t ->
  rel:Pk_keys.Key.cmp ->
  off:int ->
  pk_len:int ->
  pk_bits:bytes ->
  int
(** Value resolution for the [pk_off = off] case, packed.  [pk_bits]
    holds (at least) the stored units of the index key (packed bits,
    or raw bytes whose first byte is the difference byte); only the
    first [pk_len] units are read, so a reused buffer works.  For bit
    granularity the implied difference bit is reconstructed from [rel]
    per Fig. 3 steps 8-11 / Appendix A case 3. *)

val compare_partkey :
  Partial_key.granularity ->
  search:Pk_keys.Key.t ->
  pk:Partial_key.t ->
  rel:Pk_keys.Key.cmp ->
  off:int ->
  int
(** The full procedure, packed: offset resolution, falling back to
    stored units.  Convenience composition of the two functions
    above. *)
