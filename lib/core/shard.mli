(** Sharded multicore serving: a keyspace partitioner plus an engine
    that spreads one logical index over N single-writer sub-indexes,
    each an ordinary [Engine.Make]-built access path with its
    own node arena and counters, all sharing the caller's record heap.

    The front door is single-threaded (one client thread drives the
    aggregate access path); every mutator takes the routed
    shard's mutex, so cross-domain {e readers} can run concurrently
    through {!type:Engine.reader} handles — the optimistic path:

    - each shard's sub-index publishes a seqlock version word
      ([version] of {!type:ops}: odd while a mutation is in
      flight, bumped again on commit);
    - a reader pins a copy-on-write epoch per shard (under the shard
      mutex, so the pinned version is even) and serves lookups from
      the pinned epoch without taking any lock;
    - after each lookup the reader re-checks
      [validated pin]; on failure (a mutation
      committed or is in flight) it counts a restart in the
      [pk_lock_restarts_total{index="<tag>"}] series, backs off by
      {!Engine.backoff_pause}, re-pins, and retries — at most 8
      attempts, after which it serves one read under the shard
      mutex.

    Invariant: a value returned without the mutex was read from an
    epoch whose pinned version was still current after the read, i.e.
    no mutation of that shard overlapped the read. *)

type ops = Engine.ops
(** The core access-path record, {!Pk_core.Engine.ops}. *)

module Partition : sig
  type t

  val hash : int -> t
  (** [hash n]: FNV-1a over the key bytes, modulo [n] shards.
      Raises [Invalid_argument] when [n < 1]. *)

  val range : Pk_keys.Key.t array -> t
  (** [range splits]: [Array.length splits + 1] shards; shard [i]
      holds keys [k] with [splits.(i-1) <= k < splits.(i)].  The
      split keys must be strictly ascending. *)

  val shards : t -> int
  val route : t -> Pk_keys.Key.t -> int
  (** Allocation-free; total over all keys. *)

  val describe : t -> string
  (** e.g. ["hash(4)"] or ["range(2)"]. *)
end

module Engine : sig
  type t

  val create :
    tag:string -> partition:Partition.t -> (int -> ops) -> t
  (** [create ~tag ~partition build] builds one sub-index per shard
      with [build i].  Sub-indexes must be empty and mutated only
      through the aggregate ops / shard locks from then on. *)

  val ops : t -> ops
  (** The aggregate access path (cached): mutators route and lock the
      shard ([insert]/[delete]) or lock every involved shard in index
      order with nested fault guards (batches, [of_sorted] — keeping
      batch atomicity cross-shard); [lookup_into] scatters the probe
      batch per shard, runs each shard's group descent on a packed
      sub-batch, and gathers results back in caller order
      (allocation-free once batch routing stabilises); iteration and
      ranges are a k-way merge of the per-shard cursors; statistics
      are sums ([height] is the max); [version] is the sum of the
      sub-index words and [validated v] holds iff every word is even
      and the sum is still [v]; [snapshot] pins every shard (under
      its lock) into one read-only aggregate. *)

  val shard_count : t -> int
  val sub : t -> int -> ops
  (** Shard [i]'s sub-index — for per-shard statistics; do not mutate
      through it. *)

  val route : t -> Pk_keys.Key.t -> int

  val record_write : t -> (unit -> 'a) -> 'a
  (** Run a record-heap mutation (e.g.
      {!Pk_records.Record_store.insert}) under the engine's pin lock,
      serialising its copy-on-write page captures against concurrent
      reader epoch pinning.  Required whenever reader domains are
      live; a no-op-cost mutex otherwise. *)

  val lookup_into_domains :
    t -> domains:int -> Pk_keys.Key.t array -> int array -> unit
  (** [lookup_into] with the per-shard sub-batches fanned out over
      [domains] OCaml domains (shard [i] is served by domain
      [i mod domains]).  Quiescent trees only — no concurrent
      mutators — and tracing must be off (the cache simulator is not
      domain-safe).  [domains = 1] degenerates to the sequential
      path. *)

  (** {1 Optimistic cross-domain readers} *)

  type reader
  (** A per-domain read handle: pinned epoch + pin version per shard.
      Not itself shareable across domains — create one per reader
      domain. *)

  val reader : ?seed:int -> t -> reader
  (** [seed] (default 0) drives the backoff jitter PRNG. *)

  val backoff_pause : Pk_util.Prng.t -> attempt:int -> float
  (** The pause in seconds before retrying after failed attempt
      [attempt] (1-based): [min (1 ms * 2^(attempt-1)) 100 ms] scaled
      by a jitter factor in [\[0.5, 1.5\]], drawing exactly one
      [Prng.float rng 1.0].  Pure apart from advancing [rng]; exposed
      so tests can replay the schedule. *)

  val read : reader -> Pk_keys.Key.t -> int option
  (** One validated lookup (see the protocol above). *)

  val restarts : reader -> int
  (** Validation failures this handle has restarted on (also counted
      in [pk_lock_restarts_total{index="<tag>"}]). *)

  val release_reader : reader -> unit
  (** Drop the handle's pinned epochs (their COW pages). *)
end
