(** Multi-level set-associative cache simulator.

    Substitutes for the UltraSPARC PerfMon hardware counters the paper
    used to measure L2 misses (§5.2): the index structures generate an
    explicit address trace through {!module:Pk_mem.Mem}, and this
    simulator replays it against a configurable memory hierarchy,
    yielding deterministic per-level hit/miss counts and a simulated
    access time in nanoseconds.

    Each level is a set-associative, write-allocate, LRU cache over
    physical block addresses.  An access that misses level [i] is
    looked up (and installed) in level [i+1]; a miss in the last level
    costs the DRAM latency.  The simulated time of one access is the
    latency of the first level that hits (latencies in
    {!type:level_config} are load-to-use totals, as in Table 2 of the
    paper).

    An optional TLB models virtual-to-physical translation caching;
    pages are contiguous in our flat address space, so the TLB is a
    fully-index-free LRU set of page numbers.  Superpages (§5.1) are
    modelled by a larger [page_bytes]. *)

type level_config = {
  level_name : string;  (** e.g. ["L1"]. *)
  size_bytes : int;     (** Total capacity; must be a multiple of [block_bytes * associativity]. *)
  block_bytes : int;    (** Cache-line size; power of two. *)
  associativity : int;  (** 1 = direct-mapped. *)
  latency_ns : float;   (** Load-to-use latency when this level hits. *)
}

type tlb_config = {
  entries : int;        (** Number of translations held (fully associative, LRU). *)
  page_bytes : int;     (** Page size; power of two.  Large values model superpages. *)
  miss_ns : float;      (** Penalty added on a TLB miss. *)
}

type config = {
  levels : level_config list;  (** Ordered nearest-first, e.g. [\[l1; l2\]]. *)
  dram_ns : float;             (** Latency when all levels miss. *)
  tlb : tlb_config option;
}

type level_counts = {
  name : string;
  accesses : int;
  hits : int;
  misses : int;
}

type snapshot = {
  per_level : level_counts array;
  tlb_accesses : int;
  tlb_misses : int;
  sim_ns : float;       (** Total simulated memory-access time. *)
  total_accesses : int; (** Number of block touches fed to the hierarchy. *)
}

type t

val create : config -> t
(** Build a simulator with cold caches.  Raises [Invalid_argument] on
    inconsistent geometry (non-power-of-two blocks, capacity not
    divisible by way size, empty level list). *)

val config : t -> config

val touch : t -> addr:int -> len:int -> unit
(** Simulate a read/write of [len] bytes starting at byte address
    [addr]: every distinct block overlapped is one access to the
    hierarchy.  [len = 0] touches nothing. *)

val flush : t -> unit
(** Invalidate all cached blocks and TLB entries (cold restart) without
    clearing statistics. *)

val reset_stats : t -> unit
(** Zero all counters; cache contents are kept (warm). *)

val snapshot : t -> snapshot
(** Current cumulative counters. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter deltas for a measurement window. *)

val misses : snapshot -> level:string -> int
(** Misses recorded at the named level; raises [Not_found] for an
    unknown level name. *)
