(** Uniform first-class interface over the index schemes of §5 (plus
    any configuration), so workloads, benchmarks and examples can treat
    them interchangeably — plus the scheme {!module:Registry} every
    driver enumerates. *)

(** The access-path record assembled by {!Engine.Make}[.wrap]
    (re-exported so the fields are usable through either name). *)
type t = Engine.ops = {
  tag : string;  (** e.g. ["B/pk-byte-l2"]. *)
  insert : Pk_keys.Key.t -> rid:int -> bool;
  lookup : Pk_keys.Key.t -> int option;
  delete : Pk_keys.Key.t -> bool;
  lookup_into : Pk_keys.Key.t array -> int array -> unit;
      (** Batched lookup by group descent into a caller-supplied result
          array ([-1] = absent); the zero-allocation hot path.  See
          {!Btree.lookup_into}. *)
  insert_batch : Pk_keys.Key.t array -> rids:int array -> bool array;
      (** Batch insert; equal to singles in batch order, batch-atomic
          under fault unwinding. *)
  delete_batch : Pk_keys.Key.t array -> bool array;
  of_sorted : ?gap:float -> fill:float -> (Pk_keys.Key.t * int) array -> unit;
      (** Bottom-up bulk load of an empty index from strictly ascending
          (key, rid) pairs at the given fill factor (clamped to
          [0.5, 1.0]).  [gap] — the per-leaf slack fraction left free
          for future in-place inserts, see {!Layout.gap_fill} —
          overrides [fill] when given. *)
  compact : ?gap:float -> unit -> unit;
      (** Replay the live tree through the bulk-load pipeline in place:
          collect the (key, rid) pairs, free every node, rebuild gapped
          (default [gap] 0.1) through the placement planner.  Content-
          preserving (rids included), crash-invisible under journaling,
          all-or-nothing under fault unwinding.  Raises on snapshot
          views. *)
  layout : unit -> Layout.Placement.t option;
      (** The node-placement plan materialised by the last non-empty
          [of_sorted] or [compact], if any ([None] before a bulk load
          and on snapshot views). *)
  iter : (key:Pk_keys.Key.t -> rid:int -> unit) -> unit;
  range :
    lo:Pk_keys.Key.t -> hi:Pk_keys.Key.t -> (key:Pk_keys.Key.t -> rid:int -> unit) -> unit;
  seq_from : Pk_keys.Key.t -> (Pk_keys.Key.t * int) Seq.t;
      (** Lazy ascending cursor from the first key >= the argument. *)
  count : unit -> int;
  height : unit -> int;
  node_count : unit -> int;
  space_bytes : unit -> int;
  deref_count : unit -> int;
  node_visits : unit -> int;
  reset_counters : unit -> unit;
  trace : Pk_obs.Obs.Trace.t;
      (** The index's descent trace ring — disabled (and storage-free)
          until {!Pk_obs.Obs.Trace.enable} flips it on. *)
  validate : unit -> unit;
  version : unit -> int;
      (** Seqlock publication word (odd while a mutation is in flight);
          see {!Engine.ops}. *)
  validated : int -> bool;
      (** Read-side validation: [validated v] iff [v] is even and still
          current; see {!Engine.ops}. *)
  guard : 'a. (unit -> 'a) -> 'a;
      (** Run a computation under this index's fault-unwind scope;
          nest several indexes' guards for cross-index atomicity. *)
  snapshot : unit -> t;
      (** Pin a copy-on-write epoch: the returned record serves the
          normal read paths against the index's state at the instant of
          the call — allocation-free on the hot path — while a single
          writer keeps mutating the live index.  Mutators of the
          returned record raise, as does snapshotting a snapshot. *)
  release : unit -> unit;
      (** Release a pinned epoch's COW pages (exactly once); raises on
          the live index. *)
}

type structure = T_tree | B_tree

val structure_tag : structure -> string

val make :
  ?node_bytes:int ->
  ?naive_search:bool ->
  ?layout:Layout.policy ->
  structure ->
  Layout.scheme ->
  Pk_mem.Mem.t ->
  Pk_records.Record_store.t ->
  t
(** Build an index of the given shape and key-storage scheme over the
    given memory system and record heap.  [node_bytes] defaults to 192
    (three 64-byte L2 blocks, §5.2); [layout] (default {!Layout.Flat})
    chooses where bulk loads place nodes, and a non-flat policy tags
    the index with a ["+blocked"]-style suffix. *)

val make_prefix_btree :
  ?node_bytes:int -> ?layout:Layout.policy -> Pk_mem.Mem.t -> Pk_records.Record_store.t -> t
(** A prefix B+-tree ({!module:Prefix_btree}) behind the same
    interface — the §2 key-compression alternative, used by ablation
    A8. *)

val journaled : Pk_journal.Journal.t -> Pk_records.Record_store.t -> t -> t
(** {!Engine.journaled} with payloads resolved through the given record
    store: every mutator write-ahead-logs its logical records (key and
    payload bytes, batch id) and appends the commit marker once the
    in-memory mutation succeeded. *)

val paper_schemes : key_len:int -> ?l_bytes:int -> unit -> (string * structure * Layout.scheme) list
(** The six schemes of Figure 9, in the paper's naming:
    T-direct, T-indirect, pkT, B-direct, B-indirect, pkB — with
    byte-granularity partial keys of [l_bytes] (default 2), the paper's
    preferred configuration. *)

(** Tag → constructor registry of every available scheme.  The six
    paper schemes and the prefix B+-tree are registered at module
    initialisation; extension modules ({!module:Hybrid},
    {!module:Variants}) register themselves — force their linkage with
    their [ensure_registered] before enumerating. *)
module Registry : sig
  type info = {
    tag : string;  (** Registry name, e.g. ["pkB"]; the built index's
                       [tag] field may be more specific. *)
    structure : string;  (** "T", "B" or "B+". *)
    entry_bytes : int -> int option;
        (** Per-entry node bytes for a given key length; [None] =
            variable-size entries. *)
    build : ?node_bytes:int -> key_len:int -> Pk_mem.Mem.t -> Pk_records.Record_store.t -> t;
  }

  val register : info -> unit
  (** First registration of a tag wins; later ones are ignored. *)

  val tags : unit -> string list
  (** All registered tags, sorted and duplicate-free (registration
      order would depend on linkage forcing). *)

  val find : string -> info option

  val get : string -> info
  (** Like {!val:find}, but raises [Invalid_argument] listing the valid
      tags when the tag is unknown. *)

  val all : unit -> info list
  (** All registered schemes, in {!val:tags} order. *)

  val build :
    ?node_bytes:int ->
    key_len:int ->
    string ->
    Pk_mem.Mem.t ->
    Pk_records.Record_store.t ->
    t
  (** Build by tag.  Raises [Invalid_argument] listing the valid tags
      when the tag is unknown. *)
end

val recover_with :
  ?gap:float ->
  build:(Pk_mem.Mem.t -> Pk_records.Record_store.t -> t) ->
  Pk_journal.Journal.t ->
  Pk_mem.Mem.t * Pk_records.Record_store.t * t * Engine.recovery_stats
(** {!recover} with the index built by [build] over the fresh memory
    system and record store instead of by registry tag. *)

val recover :
  ?node_bytes:int ->
  ?gap:float ->
  key_len:int ->
  tag:string ->
  Pk_journal.Journal.t ->
  Pk_mem.Mem.t * Pk_records.Record_store.t * t * Engine.recovery_stats
(** Crash recovery by tag: build a fresh memory system, record store
    and registered scheme, then replay the journal's committed prefix
    through {!Engine.recover} (gapped bulk [of_sorted] for all
    committed batches but the last — [gap] defaults to 0.1, leaving
    insert slack for post-recovery traffic — incremental replay of the
    tail, deep validation).  Record ids are freshly assigned — only key
    and payload bytes are durable across a crash. *)
