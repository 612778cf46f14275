(** Rebuild-at-scale pipeline: staged index reconstruction for bulk
    ingest and post-churn compaction.

    Three stages:

    + {b extract} fixed-size partial-key/rid pairs from an existing
      index or an unsorted ingest buffer;
    + {b sort} them on a packed key prefix (the first {!pk_bytes} key
      bytes big-endian in one OCaml int), parallelised across OCaml 5
      domains as independent runs merged k-way — a full key
      dereference through the record heap happens {e only} on packed-
      prefix collision, the same partial-key economics the trees use
      at lookup time;
    + {b load} the result through [of_sorted ~gap], leaving per-leaf
      slack so post-rebuild inserts stay in-place instead of
      split-heavy ({!Pk_core.Layout.gap_fill}).

    The in-place variant of the pipeline is [ops.compact] on any
    {!Pk_core.Index.t}; this module provides the cross-index form plus
    the sort stage itself.  Crash recovery is
    {!Pk_core.Engine.recover}'s alone. *)

module Key = Pk_keys.Key
module Index = Pk_core.Index

val pk_bytes : int
(** Key bytes packed into the sort tag (7 — the widest big-endian
    prefix a nonnegative OCaml int holds). *)

val pack_pk : Key.t -> int
(** Pack a key's first {!pk_bytes} bytes big-endian, zero-padded.
    Order-safe: [pack_pk a < pack_pk b] implies [a < b]; equal packs
    are resolved by full-key comparison. *)

type stats = {
  sorted_keys : int;  (** entries after duplicate-key dedup *)
  runs : int;  (** per-domain sorted runs merged *)
  tie_derefs : int;  (** full-key dereferences on pack collision *)
}

val sort :
  ?domains:int ->
  ?spawn:bool ->
  ?tie_break:bool ->
  store:Pk_records.Record_store.t ->
  (Key.t * int) array ->
  (Key.t * int) array * stats
(** Sort (key, rid) entries ascending by key and drop duplicate keys
    (first occurrence in input order wins, matching repeated-insert
    semantics).  [domains] (default 1) spawns that many sorting
    domains over disjoint runs; the merge is sequential.
    [spawn:false] keeps the same run decomposition and merge but sorts
    every run in the calling domain — byte-identical output, used for
    critical-path timing (per-run cost without cross-domain GC noise)
    and deterministic tests.  Ties between
    colliding packed prefixes dereference the full key through
    [store] via {!Pk_records.Record_store.compare_sign} —
    [tie_break:false] skips that dereference (a deliberately broken
    comparator kept for the mutation self-tests; never use it for real
    loads). *)

type source =
  | Of_index of Index.t  (** extract via [iter]; rids preserved *)
  | Of_buffer of (Key.t * int) array  (** unsorted ingest buffer *)

val extract : source -> (Key.t * int) array
(** Materialise the source's (key, rid) pairs (unsorted contract —
    callers feed {!val:sort}). *)

val rebuild :
  ?domains:int ->
  ?gap:float ->
  store:Pk_records.Record_store.t ->
  into:Index.t ->
  source ->
  stats
(** Run the full pipeline into the {e empty} index [into]: extract,
    parallel-sort (tie-breaking through [store]), then one gapped bulk
    load (default [gap] 0.1).  Rebuilding an index into a fresh target
    preserves rids, so lookups against the rebuilt tree return
    byte-identical results. *)
