(** Flat byte arena: the storage manager substrate.

    Index nodes and data records live in growable, contiguous byte
    arenas at explicit offsets, mirroring the mmap'd segments of a
    main-memory storage manager (DataBlitz/Dali style).  Explicit
    layout is what lets the cache simulator see the same address trace
    a C implementation would generate, and keeps the OCaml GC out of
    the hot path (the paper's layout story would otherwise be destroyed
    by boxed values).

    Offsets returned by [alloc] are plain integers; offset [0] is
    reserved as the null "pointer" ([null]).  All multi-byte accessors
    are little-endian.  Raw accessors here do not touch the cache
    simulator; higher layers ({!module:Pk_mem.Mem}) wrap them with
    accounting. *)

type t

val null : int
(** The reserved null offset (0).  No allocation ever returns it. *)

val create : ?initial_capacity:int -> name:string -> unit -> t
(** A fresh arena.  [initial_capacity] defaults to 64 KiB; the arena
    doubles as needed. *)

val name : t -> string

val alloc : t -> ?align:int -> int -> int
(** [alloc t ~align size] returns the offset of a fresh zeroed region
    of [size] bytes whose offset is a multiple of [align] (default 8;
    must be a power of two).  Reuses freed regions of the same size
    class when available (freed regions are reused only for requests of
    the identical size, so alignment of recycled blocks is preserved).
    Raises [Invalid_argument] for [size <= 0].  Fault points:
    ["arena.alloc"] on entry, ["arena.grow"] when the backing buffer
    would have to grow. *)

val reserve : t -> ?align:int -> ?huge:int -> int -> int
(** [reserve t ~align size] bump-allocates a contiguous placement range
    of [size] zeroed bytes at an [align]-multiple offset (default 8;
    must be a power of two).  Unlike {!alloc} it never recycles a
    freed block — a reservation's alignment guarantee is the point —
    and the whole extent is one undo-journal record, so an aborted
    transaction reclaims it atomically.  Carve individual placements
    out of it with {!alloc_at}.  Same fault points as {!alloc}.

    [?huge] (a power of two, the layout policy's huge-block size) makes
    the reservation hugepage-aware: the base is aligned to [huge] even
    when the extent is smaller, and the size is rounded up to a whole
    number of huge blocks, so nothing allocated later shares a huge
    block — and therefore a TLB entry — with the reserved extent. *)

val alloc_at : t -> off:int -> int -> int
(** [alloc_at t ~off size] claims the region [off, off+size), which
    must lie below the allocation frontier: either inside a live
    reservation (pure validation — the reservation already accounts
    for the bytes) or exactly covering a freed block of the same size,
    which is taken off the free list and becomes live again.  Returns
    [off].  Raises [Invalid_argument] on offsets at/past the frontier,
    on a size mismatch with a freed block, and on blocks freed within
    the open transaction.  Fault point: ["arena.alloc"]. *)

val free : t -> int -> int -> unit
(** [free t off size] returns a region to the arena's free list for its
    size class.  The region is zeroed eagerly so stale bytes cannot
    leak into re-allocations.  Inside a transaction the free is
    deferred to commit.  Raises [Invalid_argument] on a double free
    (the offset is already on a free list or pending free: an O(1)
    check, however many frees are pending) and on regions outside the
    allocated range. *)

(** {1 Undo journal} — crash consistency for index maintenance.

    While a transaction is open, allocations are recorded, frees are
    deferred, and an in-place mutation logs the bytes it overwrites —
    unless it lies wholly at or above the bump frontier recorded by
    [begin_txn]: those bytes were zero then and only this
    transaction's allocations reach them.  The log is one flat,
    reused buffer pair, so a steady-state store allocates nothing.
    Transactions do not nest. *)

val begin_txn : t -> unit
(** Open a transaction and record the bump frontier.
    @raise Invalid_argument if one is already open. *)

val commit_txn : t -> unit
(** Apply the deferred frees, oldest first, and close the
    transaction. *)

val abort_txn : t -> unit
(** Restore the arena to its exact state at [begin_txn], modulo the
    high-water mark: logged bytes get their pre-images back (newest
    first), everything from the recorded frontier up to the current
    one is re-zeroed, the transaction's allocations go back on the
    free lists, and its deferred frees are dropped.  Shadows attached
    before the abort still read their pre-images.  A transaction whose
    log grew past a fixed size (64 KiB) releases it when it commits or
    aborts. *)

val in_txn : t -> bool

(** {1 Shadow pages} — copy-on-write snapshot support.

    An attached shadow preserves the arena's content as of the moment of
    attachment: before any in-place mutation (stores, fills, blits,
    frees, undo-journal rollbacks) the affected 256-byte pages are
    copied into every attached shadow that does not hold them yet.
    Reading through a shadow yields the pre-attachment bytes for
    captured pages and the live bytes otherwise — which are identical
    for never-overwritten pages.

    Single-writer discipline: mutations (and hence captures) must come
    from one thread, but shadow reads may proceed concurrently from
    other systhreads — page-table rows are published before pages, and
    pages before the overwrite, so a reader never observes torn state. *)

type shadow

val shadow_attach : t -> shadow
(** Pin the arena's current content.  O(1); costs are paid lazily by
    subsequent writes (one 256-byte copy per first-touched page). *)

val shadow_detach : t -> shadow -> unit
(** Release the shadow and drop all captured pages.  Reads through a
    detached shadow raise.  Idempotent. *)

val shadow_live : shadow -> bool
val shadow_cow_bytes : shadow -> int
(** Bytes of captured pre-image pages currently held (0 after detach). *)

val shadow_get_u8 : t -> shadow -> int -> int
val shadow_get_u16 : t -> shadow -> int -> int
val shadow_get_u32 : t -> shadow -> int -> int
val shadow_get_u64 : t -> shadow -> int -> int
(** Little-endian reads as of attachment time.  Allocation-free. *)

val shadow_blit_to_bytes :
  t -> shadow -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit

val used_bytes : t -> int
(** High-water mark of bytes ever bump-allocated (excludes capacity
    slack, includes currently-free-listed regions). *)

val live_bytes : t -> int
(** [used_bytes] minus bytes sitting in free lists: the arena's live
    footprint.  This is the number reported as index space usage. *)

val capacity : t -> int
(** Current backing-buffer size in bytes. *)

(** {1 Raw accessors} — bounds-checked by the underlying [Bytes]
    primitives. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_u64 : t -> int -> int
(** Stored as little-endian int64; values are OCaml ints (63-bit), which
    is ample for arena offsets. *)

val set_u64 : t -> int -> int -> unit

val blit_from_bytes : t -> src:bytes -> src_off:int -> dst_off:int -> len:int -> unit
val blit_to_bytes : t -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
val blit_within : t -> src_off:int -> dst_off:int -> len:int -> unit
(** [blit_within] handles overlapping regions correctly. *)

val equal_words : t -> off:int -> bytes -> b_off:int -> len:int -> int
(** [equal_words t ~off b ~b_off ~len] is the number of leading bytes
    over which the arena region [\[off, off+len)] and
    [b\[b_off, b_off+len)] agree word by word: a multiple of 8, found
    by stopping at the first unequal 8-byte word or when fewer than 8
    bytes remain.  It is 0 when either range is not wholly in bounds.
    The word skip of the in-place key comparisons; callers finish the
    scan byte by byte.  Allocation-free. *)

val sub_bytes : t -> off:int -> len:int -> bytes
(** Copy a region out as fresh [bytes]. *)

val fill : t -> off:int -> len:int -> char -> unit
