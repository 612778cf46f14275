(** Instrumented storage manager.

    [Mem] glues the byte arenas ({!module:Pk_arena.Arena}) to the cache
    simulator ({!module:Pk_cachesim.Cachesim}).  Every region created
    through a [Mem.t] is assigned a disjoint base in a single flat
    "physical" address space, and every typed access through a
    {!type:region} optionally charges the simulator with the exact byte
    range touched — producing the address trace whose L2 misses the
    paper measures.

    Tracing is a cheap runtime flag: benchmarks measuring wall-clock
    time run with tracing off (no simulator in the hot path), and
    cache-behaviour runs flip it on over the very same trees. *)

type t
(** The memory system: a set of regions plus an optional cache
    simulator. *)

type region
(** A named allocation region (nodes of one index, the record heap,
    ...) with its own base address. *)

val create : ?cache:Pk_cachesim.Cachesim.t -> unit -> t

val cache : t -> Pk_cachesim.Cachesim.t option
val set_cache : t -> Pk_cachesim.Cachesim.t option -> unit

val tracing : t -> bool
val set_tracing : t -> bool -> unit
(** Tracing only takes effect while a cache simulator is attached. *)

val with_tracing : t -> bool -> (unit -> 'a) -> 'a
(** Run a thunk with tracing temporarily forced to the given value. *)

val new_region : t -> ?initial_capacity:int -> name:string -> unit -> region
(** Regions receive disjoint 1-TiB-spaced base addresses, so traces
    from different regions can never alias in the simulator. *)

val region_name : region -> string
val mem : region -> t

(** {1 Snapshot views} — read-only copy-on-write regions.

    [snapshot_view r] pins [r]'s current content by attaching an arena
    shadow ({!Pk_arena.Arena.shadow_attach}): subsequent writes through
    any region over the same arena first preserve the overwritten
    pages, and all reads through the returned view resolve against the
    pinned content.  The view shares [r]'s base address and cache
    accounting; mutating accessors ([alloc], [free], [write_*], [move])
    raise [Invalid_argument] on a view.  Reads stay allocation-free
    (one extra branch plus a page-table probe per byte examined), and
    may run from another systhread while a single writer mutates the
    underlying region. *)

val snapshot_view : region -> region
val release_view : region -> unit
(** Drop the view's captured pages.  Reads through a released view
    raise.  Raises [Invalid_argument] on a non-view region or a view
    that was already released. *)

val is_view : region -> bool
val view_live : region -> bool
val view_cow_bytes : region -> int
(** Bytes of pre-image pages the view currently holds (0 for non-views
    and after release) — the COW cost of keeping the epoch alive. *)

val base : region -> int
(** Physical base address of the region. *)

val live_bytes : region -> int
(** Live footprint (allocated minus freed), for space reporting. *)

val used_bytes : region -> int

(** {1 Allocation} — never charged to the simulator (allocation is
    metadata work; the initialising writes that follow are charged). *)

val alloc : region -> ?align:int -> int -> int

val reserve : region -> ?align:int -> ?huge:int -> int -> int
(** Placement reservation at the bump frontier; see
    {!val:Pk_arena.Arena.reserve}.  Because region bases are aligned far
    beyond any hugepage size, an [align]-multiple arena offset is an
    [align]-multiple simulated physical address too ([?huge] aligns the
    base to, and rounds the extent up to, the policy's huge-block
    size). *)

val alloc_at : region -> off:int -> int -> int
(** Claim a planner-chosen range inside a reservation (or an exactly
    matching freed block); see {!val:Pk_arena.Arena.alloc_at}. *)

val free : region -> int -> int -> unit

val guard : region -> (unit -> 'a) -> 'a
(** [guard r f] runs [f] inside an arena undo transaction on [r]'s
    arena: on normal return the writes are committed (and deferred
    frees applied); on any exception the arena is rolled back to its
    state at entry and the exception re-raised.  Reentrant — a nested
    guard joins the open transaction.  A no-op (direct call) when
    {!val:Pk_fault.Fault.unwind_enabled} is off. *)

val in_txn : region -> bool

(** {1 Typed accesses} — every call charges the simulator with the
    touched byte range when tracing is on. *)

val read_u8 : region -> int -> int
val write_u8 : region -> int -> int -> unit
val read_u16 : region -> int -> int
val write_u16 : region -> int -> int -> unit
val read_u32 : region -> int -> int
val write_u32 : region -> int -> int -> unit
val read_u64 : region -> int -> int
val write_u64 : region -> int -> int -> unit

val read_bytes : region -> off:int -> len:int -> bytes
val read_into : region -> off:int -> dst:bytes -> dst_off:int -> len:int -> unit
val write_bytes : region -> off:int -> src:bytes -> src_off:int -> len:int -> unit

val move : region -> src_off:int -> dst_off:int -> len:int -> unit
(** Intra-region move (used when shifting entry arrays inside a node);
    charges both source and destination ranges. *)

val compare_detail :
  region -> off:int -> len:int -> bytes -> key_off:int -> key_len:int -> int
(** [compare_detail r ~off ~len probe ~key_off ~key_len] compares the
    region bytes [\[off, off+len)] with [probe\[key_off, key_off+key_len)]
    lexicographically (shorter operand that is a prefix of the longer
    compares smaller).  Returns [(diff lsl 2) lor (cmp + 1)] — the
    layout of [Pk_keys.Key.pack_sign] — where [cmp] is -1/0/1 and
    [diff] is the index of the first differing byte ([= min len
    key_len] when one operand is a prefix).  Never allocates; fires one
    ["mem.read"] fault point and charges exactly the prefix of region
    bytes examined — matching a real memcmp's memory traffic. *)

val compare_sign :
  region -> off:int -> len:int -> bytes -> key_off:int -> key_len:int -> int
(** The sign (-1/0/1) of {!val:compare_detail}, with the same fault
    point and charge; the direct and indirect schemes' comparison. *)

val touch : region -> off:int -> len:int -> unit
(** Explicitly charge a byte range (e.g. one logical field group read
    whose parts were already decoded). *)
