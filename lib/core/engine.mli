(** Shared traversal/maintenance engine for the index structures.

    The batched access path — group-descent lookups, sorted batch
    mutations under one unwind scope, bottom-up bulk load, spine-stack
    cursors, deref/visit counters and fault-guard wrapping — is
    implemented once here.  A single-key lookup is a one-probe batch
    through the same per-tree descent hooks.  Each tree supplies its
    per-structure primitives through {!module-type:STRUCTURE} and is
    rebuilt into the uniform closure record {!type:ops} by
    {!module:Make}[.wrap]. *)

module Mem = Pk_mem.Mem
module Fault = Pk_fault.Fault
module Key = Pk_keys.Key
module Record_store = Pk_records.Record_store
module Partial_key = Pk_partialkey.Partial_key
module Pk_compare = Pk_partialkey.Pk_compare
module Node_search = Pk_partialkey.Node_search
module Obs = Pk_obs.Obs

val null : int

(** {2 Scratch-array sizing} *)

val pow2_at_least : int -> int

val check_rids : Key.t array -> rids:int array -> unit
(** Raise [Invalid_argument] unless [keys] and [rids] have equal length. *)

(** {2 Bulk-load pass helpers}

    Each tree's bulk load is one ordered pass over the in-hand
    [(key, rid)] array: it writes the entries, checks the order and
    encodes partial keys from the in-hand keys, reading no record. *)

val not_ascending : string -> 'a
(** [not_ascending name] raises
    [Invalid_argument "<name>.bulk_load: keys must be strictly ascending"],
    the one order error of every tree's bulk load. *)

val check_ascending : string -> Key.t -> Key.t -> unit
(** [check_ascending name prev key]: {!not_ascending} unless
    [prev < key]. *)

val touch_keys : (Key.t * int) array -> int -> int -> int -> int
(** [touch_keys entries lo hi 0] reads the first byte of the keys of
    entries [lo] to [hi - 1] (clamped to the array) and returns their
    sum: independent loads whose cache misses overlap.  The loader runs
    it on the next node's keys before encoding the current node and
    keeps the result live with [Sys.opaque_identity].  Plain heap reads:
    no [Mem] access, fault point or charge. *)

(** Per-tree dereference / node-visit / unwind counters, doubled into
    the process-wide {!Obs.Registry.default} through preallocated
    handles and optionally traced into the tree's ring buffer. *)
module Counters : sig
  type t = {
    mutable derefs : int;
    mutable visits : int;
    mutable unwinds : int;
    mutable m_derefs : Obs.Counter.t;
    mutable m_visits : Obs.Counter.t;
    mutable m_unwinds : Obs.Counter.t;
    trace : Obs.Trace.t;
  }

  val create : unit -> t
  (** Handles start as {!Obs.Counter.nop}; the trace ring starts
      disabled and storage-free. *)

  val reset : t -> unit
  (** Zero the local counts and withdraw them from the attached
      registry series, so series totals track live per-tree counts. *)

  val attach : t -> tag:string -> unit
  (** Register (idempotently) the per-index series
      [pk_index_{derefs,visits,unwinds}_total{index="tag"}] in
      {!Obs.Registry.default} and aim the handles at them.  Called by
      {!Make.wrap}; same-tag trees share (and sum into) one series. *)

  val deref : t -> int -> int -> unit
  (** [deref c node entry]: count one record-key dereference. *)

  val visit : t -> int -> unit
  (** [visit c node]: count one node visit. *)

  val unwind : t -> unit
  (** Count one fault-unwind scope (nested guards count once each). *)
end

(** Reusable per-probe batch state owned by each tree.  [keys]/[out]
    are re-aimed at the caller's arrays for the duration of a batched
    lookup so cached hook closures can reach them without per-call
    allocation; [one_key]/[one_out] are the one-slot pair a single-key
    lookup runs through; [node]/[probe] aim the tree's cached FINDNODE
    ops. *)
module Scratch : sig
  type t = {
    mutable perm : int array;
    mutable pks : int array;
    mutable rel : Key.cmp array;
    mutable off : int array;
    mutable la : int array;
    mutable sign : int array;
    mutable keys : Key.t array;
    mutable out : int array;
    one_key : Key.t array;
    one_out : int array;
    mutable node : int;
    mutable probe : Key.t;
  }

  val create : unit -> t

  val grow_perm : t -> int -> unit
  (** Make [perm] and [pks] (the probes' packed sort prefixes) hold at
      least [n] probes; the fields are stored only when they grow. *)

  val grow_sign : t -> int -> unit
  (** As {!grow_perm}, for [sign]. *)

  val seed_findnode : t -> Partial_key.granularity -> Key.t array -> int -> unit
  (** Grow [rel]/[off]/[la] to [n] probes (stored only on growth) and
      seed each probe's (rel, off) FINDNODE state from
      {!Partial_key.initial_state}. *)
end

type 'a header = { get : 'a -> int -> int; set : 'a -> int -> int -> unit }
(** A tree's scalar header (root, height, node and key counts): at most
    four ints, field [i] read by [get t i] and written by [set t i v].
    Past a tree's last field [get] returns 0 and [set] does nothing. *)

val guarded :
  reg:Mem.region ->
  cnt:Counters.t ->
  'a header ->
  ('a -> 'b -> 'c -> 'd) ->
  'a ->
  'b ->
  'c ->
  'd
(** [guarded ~reg ~cnt h op t a b] runs [op t a b] under the arena undo
    journal with [t]'s header kept in locals, restoring both on any
    exception (counted as one unwind against [cnt]).  Allocates
    nothing; a direct call when unwinding is disabled. *)

(** Scheme-dependent entry helpers shared by the fixed-size-entry trees
    (B-tree, T-tree): address arithmetic, key access, partial-key
    maintenance, comparison primitives. *)
module Entries : sig
  type ctx = {
    name : string;
    reg : Mem.region;
    records : Record_store.t;
    scheme : Layout.scheme;
    esz : int;
    entries_at : int;
    cnt : Counters.t;
    units : bytes;
        (** [l_bytes]-long window FINDNODE reads an entry's stored
            units into ({!Layout.resolve_pk_units}); empty for the
            plain schemes. *)
    mutable key_win : bytes;
    mutable base_win : bytes;
        (** {!fix_pk}'s reusable record-key windows: 32 bytes, doubled
            when a key does not fit; empty for the plain schemes. *)
  }

  val make :
    name:string ->
    reg:Mem.region ->
    records:Record_store.t ->
    scheme:Layout.scheme ->
    entries_at:int ->
    Counters.t ->
    ctx

  val entry_addr : ctx -> int -> int -> int
  val rec_ptr : ctx -> int -> int -> int
  val entry_key : ctx -> int -> int -> Key.t
  val granularity : ctx -> Partial_key.granularity
  val l_bytes : ctx -> int
  val is_partial : ctx -> bool

  val fix_pk : ctx -> int -> int -> n:int -> base:int -> unit
  (** Recompute entry [i]'s stored partial key.  [base] is the record
      pointer of entry 0's base key ([null] = the virtual zero key);
      later entries are based on their predecessor.  Copies the two
      record keys into [key_win] / [base_win] and encodes them with
      {!encode_pk}.  Out-of-range [i] is a no-op.  An entry key equal to
      its base's raises [Invalid_argument].  Partial schemes only. *)

  val encode_pk :
    ctx -> int -> int -> Key.t -> len:int -> base:Key.t -> base_len:int -> int
  (** [encode_pk c node i key ~len ~base ~base_len] stores entry [i]'s
      field for the first [len] bytes of [key] against the first
      [base_len] of [base] and returns the sign of [c(key, base)]; equal
      keys store nothing.  The write path's one encoder: bit for bit
      {!Partial_key.encode}'s field (bits past a key's end read as
      zero), written with {!Layout.write_pk_image}; reads no record,
      allocates nothing.  Bit-granularity keys equal once zero-padded
      raise [Invalid_argument].  Partial schemes only. *)

  val encode_pk_initial : ctx -> int -> int -> Key.t -> len:int -> unit
  (** As {!encode_pk} against the virtual zero key
      ({!Partial_key.encode_initial}). *)

  val load_after : ctx -> int -> int -> Key.t -> prev:Key.t -> unit
  (** [load_after c node i key ~prev]: bulk-load step for an entry
      whose sorted predecessor is [prev].  Raises {!not_ascending}
      unless [prev < key]; under a partial scheme the check is the sign
      of {!encode_pk} against [prev], which also stores the field. *)

  val check_pk : ctx -> int -> int -> base:int -> unit
  (** Re-derive entry [i]'s partial key ([base] as for {!fix_pk}) and
      [failwith] on mismatch. *)

  val blit_entries : ctx -> src:int -> src_i:int -> dst:int -> dst_i:int -> n:int -> unit
  val write_entry : ctx -> int -> int -> key:Key.t -> rid:int -> unit

  val byte_or_zero : Key.t -> int -> int
  val bit_or_zero : Key.t -> int -> int

  val deref_entry : ctx -> int -> Key.t -> int -> int
  (** Full comparison of the search key against entry [i]'s record key,
      packed ({!Key.pack}); counts one dereference.  Allocation-free. *)

  val probe_sign : ctx -> int -> Key.t -> int -> int
  (** Sign of [c(probe, entry i)], comparing the key in place.  A
      record-key comparison (indirect and partial schemes) counts one
      dereference.  Allocation-free. *)

  val search : ctx -> int -> Key.t -> int -> int -> int
  (** [search c node probe lo hi]: binary search of [probe] among
      entries [lo] to [hi - 1] over {!probe_sign}.  Returns the insertion
      point, or [lnot i] (negative) when entry [i] matches.  The one
      in-node search of the fixed-entry trees outside FINDNODE.
      Allocation-free. *)

  val found_rid : ctx -> int -> int -> int
  (** [found_rid c node r]: the record pointer of a {!search} match
      [r], or [-1] when [r] is an insertion point. *)

  val make_ops : ctx -> Scratch.t -> shift:int -> Node_search.entry_ops
  (** Build one {!type:Node_search.entry_ops} reading entries
      [i + shift] of the scratch's [node] against its [probe]; re-aim
      instead of rebuilding.  [num_keys] starts at 0 and is patched per
      node. *)

  val head_pk_cmp : ctx -> int -> Key.t -> rel:Key.cmp -> off:int -> int
  (** Partial-key comparison of the search key against entry 0 —
      FINDTTREE's per-level step (offset-only resolution, then units,
      then one dereference on partial-key equality), packed.
      Allocation-free. *)
end

(** Group descent over child-partitioned trees (B-tree, prefix
    B+-tree): sorted probes descend as contiguous per-child runs; a
    node visit is counted in [cnt] once per (node, segment). *)
module Group : sig
  type router = {
    sc : Scratch.t;
    cnt : Counters.t;
    is_leaf : int -> bool;
    num_keys : int -> int;
    route : int -> int -> int -> int;
        (** [route node n slot]: the child node to descend into, or -1
            when the probe resolved at this node (hook wrote
            [sc.out]).  Probes routed to one child must be contiguous
            in key order. *)
    leaf_probe : int -> int -> int -> unit;
        (** [leaf_probe node n slot]: resolve at a leaf into [sc.out]. *)
  }

  val drive : router -> int -> int -> int -> unit
  (** [drive r node lo hi] resolves sorted-permutation positions
      [lo..hi) starting at [node]. *)

  val drive1 : router -> int -> int -> unit
  (** [drive1 r node slot] resolves the one probe in [slot] starting at
      [node]: the same hooks, one root-to-leaf path. *)
end

(** Group descent over binary (T-tree) structures: each node splits the
    sorted batch into below / equal / above its leftmost entry. *)
module Tgroup : sig
  type driver = {
    sc : Scratch.t;
    cnt : Counters.t;
    left : int -> int;
    right : int -> int;
    classify : int -> int -> int;
        (** [classify node slot]: the probe's sign against entry 0 (plus
            any per-probe state updates; on 0 the hook wrote
            [sc.out]). *)
    final : int -> int -> unit;
        (** [final la slot]: resolve a probe that reached a null child
            against its last greater-than ancestor [la] (or [null]). *)
  }

  val drive : driver -> int -> int -> int -> int -> unit
  (** [drive d node la lo hi]: resolve sorted-permutation positions
      [lo..hi) (non-empty) from [node], [la] being their last
      greater-than ancestor. *)

  val drive1 : driver -> int -> int -> int -> unit
  (** [drive1 d node la slot]: the one-probe descent of [slot]. *)
end

(** {2 The uniform access-path record} *)

type ops = {
  tag : string;
  insert : Key.t -> rid:int -> bool;
  lookup : Key.t -> int option;
  delete : Key.t -> bool;
  lookup_into : Key.t array -> int array -> unit;
  insert_batch : Key.t array -> rids:int array -> bool array;
  delete_batch : Key.t array -> bool array;
  of_sorted : ?gap:float -> fill:float -> (Key.t * int) array -> unit;
      (** Bulk load from strictly ascending [(key, rid)] pairs; [gap]
          (the per-leaf slack fraction, see {!Layout.gap_fill})
          overrides [fill] when given.  Each in-hand key must equal the
          key stored in its rid's record: partial keys are encoded from
          the in-hand keys, and no record is read.  The order is checked
          in the loading pass itself: a bad input raises
          [Invalid_argument] inside the unwind scope and leaves the
          index empty and loadable — but with [Fault.set_unwind false]
          it can leave a partial tree behind, as a failing insert
          already can. *)
  compact : ?gap:float -> unit -> unit;
      (** Replay the live tree through the bulk-load pipeline in place:
          collect the (key, rid) pairs, free every node, and rebuild
          gapped (default [gap] 0.1) through the placement planner.
          Content-preserving (rids included) and crash-invisible: an
          unwind mid-compact restores the pre-compact tree, and the
          journaled wrapper logs nothing for it.  Raises on read-only
          views. *)
  layout : unit -> Layout.Placement.t option;
      (** Placement plan of the most recent [of_sorted] or non-empty
          [compact] on this record ([None] before any bulk load, and on
          snapshot views).  The flat plan is reported as
          {!Layout.Placement.flat}. *)
  iter : (key:Key.t -> rid:int -> unit) -> unit;
  range : lo:Key.t -> hi:Key.t -> (key:Key.t -> rid:int -> unit) -> unit;
  seq_from : Key.t -> (Key.t * int) Seq.t;
  count : unit -> int;
  height : unit -> int;
  node_count : unit -> int;
  space_bytes : unit -> int;
  deref_count : unit -> int;
  node_visits : unit -> int;
  reset_counters : unit -> unit;
  trace : Obs.Trace.t;
  validate : unit -> unit;
  version : unit -> int;
      (** Seqlock-style publication word: odd while a mutator is in
          flight, bumped again when it completes (normally or by fault
          unwind).  Mutations are assumed single-writer per index; the
          word is an [Atomic.t], so cross-domain readers may poll it
          without synchronisation. *)
  validated : int -> bool;
      (** [validated v] — the read-side validation hook: true iff [v]
          is an even (stable) version and the index is still at [v], so
          reads taken entirely at version [v] observed a committed
          state.  On a snapshot view, true exactly for the pin-time
          version. *)
  guard : 'a. (unit -> 'a) -> 'a;
      (** Run a computation under this index's fault-unwind scope
          (arena undo journal + header snapshot) — the building block
          for {e cross-index} atomicity: nesting several indexes'
          guards makes a compound mutation all-or-nothing across all of
          them.  A no-op wrapper when unwinding is disabled and on
          read-only views. *)
  snapshot : unit -> ops;
      (** Pin a copy-on-write epoch: the returned record serves the
          normal read paths (group descent included) against the index's
          state at the instant of the call, allocation-free on the hot
          path, while a single writer keeps mutating the live index.
          Mutators of the returned record raise; pinning a snapshot of
          a snapshot raises.  Pinning must be serialised with mutators
          (e.g. under the shard writer lock). *)
  release : unit -> unit;
      (** Release a pinned epoch's COW pages (exactly once; a second
          call raises).  On the live index this raises. *)
}

val read_only_view : pinned:int -> on_release:(unit -> unit) -> ops -> ops
(** The snapshot-view record over [o]'s read paths and statistics:
    every mutator raises, [version] is fixed at the pin-time word
    [pinned] (so [validated v] iff [v = pinned]), [guard] is a plain
    call, [layout] is [None], snapshotting raises, and [release] runs
    [on_release] exactly once (a second call raises).  Shared by
    {!Make}[.wrap]'s snapshots and the sharded aggregate's. *)

(** {2 Write-ahead journaling and recovery} *)

val journaled : Pk_journal.Journal.t -> payload_of:(int -> bytes) -> ops -> ops
(** Interpose the operation journal on every mutator: logical records
    are appended before the in-memory mutation and the batch's commit
    marker after it succeeds, so an exception escaping mid-batch leaves
    an uncommitted suffix that replay discards.  [payload_of rid] reads
    the payload bytes the rid resolves to (the record must already be in
    the store when the mutator is called).  Reads, statistics and
    snapshots pass through. *)

type recovery_stats = {
  rec_batches : int;  (** committed batches replayed *)
  rec_ops : int;  (** committed operation records replayed *)
  rec_bulk : int;  (** keys restored through the [of_sorted] prefix *)
  rec_tail : int;  (** tail operations replayed incrementally *)
  rec_skipped : int;  (** uncommitted operation records discarded *)
  rec_torn : int;  (** bytes of a torn final record dropped when the journal was read *)
}

val recover :
  ?gap:float ->
  build:(unit -> ops) ->
  store_insert:(key:Key.t -> payload:bytes -> int) ->
  store_delete:(int -> unit) ->
  Pk_journal.Journal.t ->
  ops * recovery_stats
(** Rebuild a fresh index from the journal's committed prefix: all
    committed batches but the last are folded into a sorted logical
    state ({!Keysort.sort_perm} over their ops, one pass per key) and
    restored in one gapped [of_sorted] pass ([gap] defaults
    to 0.1, so the recovered tree keeps insert slack for the traffic
    that follows); the last batch replays incrementally through the
    single-key path.  Record ids are re-assigned via [store_insert].
    The recovered index is deep-validated before being returned;
    [pk_recovery_replays_total] / [pk_recovery_replayed_ops] are
    updated. *)

(** The per-structure primitive set a tree supplies to the engine. *)
module type STRUCTURE = sig
  type t

  val name : string
  val region : t -> Mem.region
  val counters : t -> Counters.t
  val scratch : t -> Scratch.t
  val root : t -> int
  val header : t header
  val insert : t -> Key.t -> rid:int -> bool
  val delete : t -> Key.t -> bool

  val prepare_batch : t -> Key.t array -> int -> unit
  (** Grow/initialise the per-probe scratch state for an [n]-probe batch. *)

  val descend : t -> int -> unit
  (** Resolve the sorted batch (permutation, probes, result slots are in
      the scratch record). *)

  val descend_one : t -> int -> unit
  (** [descend_one t slot]: seed probe [slot]'s per-probe state and
      resolve it through the same hooks as [descend] — no permutation,
      no [prepare_batch]. *)

  val layout_policy : t -> Layout.policy
  (** Node-placement policy bulk loads build under. *)

  val load_shape : t -> fill:float -> (Key.t * int) array -> Layout.shape
  (** Pure pre-pass predicting exactly the levels [load_sorted] will
      build for the same [fill] and entries (root level first). *)

  val load_sorted : t -> fill:float -> plan:Layout.Placement.t -> (Key.t * int) array -> unit
  (** Build bottom-up, allocating each node at the plan's target offset
      (plain 64-byte-aligned allocation under the flat plan), in one
      pass that also checks each key (the tree's own admission check)
      and the strict ascending order ({!not_ascending}).  The engine
      does not walk the entries itself. *)

  val clear : t -> unit
  (** Free every node and reset the scalar header to the empty-tree
      state (the compaction teardown).  All writes go through the
      region, so an enclosing engine guard undoes a partial clear. *)

  val cursor_start : t -> Key.t option -> (int * int) list
  (** Spine stack positioned at the first key ([None]) or the first key
      >= the probe; frames are (node, next entry index). *)

  val frame_entries : t -> int -> int
  val frame_entry : t -> int -> int -> Key.t * int
  val advance : t -> int -> int -> (int * int) list -> (int * int) list
  val exhausted : t -> int -> (int * int) list -> (int * int) list

  val records : t -> Record_store.t
  val snapshot_view : t -> reg:Mem.region -> records:Record_store.t -> t
  (** Clone the tree header onto snapshot-view regions: same scalar
      state (root, height, counts), fresh caches/scratch, reads resolve
      through [reg]/[records]. *)

  val count : t -> int
  val height : t -> int
  val node_count : t -> int
  val space_bytes : t -> int
  val validate : t -> unit
end

module Make (S : STRUCTURE) : sig
  val guarded : S.t -> (unit -> 'a) -> 'a
  val lookup_into : S.t -> Key.t array -> int array -> unit

  val lookup : S.t -> Key.t -> int option
  (** A one-probe [lookup_into] over the scratch's one-slot pair. *)

  val insert_batch : S.t -> Key.t array -> rids:int array -> bool array
  val delete_batch : S.t -> Key.t array -> bool array
  val bulk_load : S.t -> ?gap:float -> ?fill:float -> (Key.t * int) array -> unit

  (** [bulk_load] returning the placement plan it built under ([None]
      for an empty entry array).  [gap] overrides [fill] when given
      (see {!Layout.gap_fill}). *)
  val bulk_load_plan :
    S.t -> ?gap:float -> ?fill:float -> (Key.t * int) array -> Layout.Placement.t option

  val compact : S.t -> ?gap:float -> unit -> Layout.Placement.t option
  (** Rebuild the live tree through the bulk-load pipeline in place
      (default [gap] 0.1) under one unwind scope; [None] when the tree
      is empty. *)

  val seq_from : S.t -> Key.t -> (Key.t * int) Seq.t
  val iter : S.t -> (key:Key.t -> rid:int -> unit) -> unit
  val range : S.t -> lo:Key.t -> hi:Key.t -> (key:Key.t -> rid:int -> unit) -> unit

  val wrap : S.t -> tag:string -> ops
  (** Assemble the full access-path record over one tree instance. *)
end
