(** Workload construction and measurement driver.

    Reproduces the paper's experimental procedure (§5.2): build an
    index over [n] unique keys of a given length and per-byte entropy,
    then perform successful lookups from a pregenerated random key
    list, measuring (a) L2 cache misses per lookup on the simulated
    hierarchy, (b) wall-clock time per lookup with the simulator
    detached, and (c) simulated memory time. *)

type env = {
  mem : Pk_mem.Mem.t;
  cache : Pk_cachesim.Cachesim.t;
  records : Pk_records.Record_store.t;
}

val make_env :
  ?machine:Pk_cachesim.Machine.t -> ?tlb:Pk_cachesim.Cachesim.tlb_config -> unit -> env
(** Default machine: the paper's Sun Ultra 30. *)

type dataset = {
  env : env;
  keys : Pk_keys.Key.t array;   (** Insertion order (random). *)
  rids : int array;             (** Record address per key. *)
  key_len : int;
  alphabet : int;
}

val make_dataset : env -> ?seed:int -> key_len:int -> alphabet:int -> n:int -> unit -> dataset
(** Generates [n] unique keys and stores one record per key (each on
    its own cache line).  Deterministic for a given seed. *)

val load : dataset -> Pk_core.Index.t -> unit
(** Insert every key of the dataset (fails on any rejected insert). *)

val probes : dataset -> ?seed:int -> n:int -> unit -> Pk_keys.Key.t array
(** [n] keys drawn (with wraparound) from a random permutation of the
    dataset — all lookups succeed, as in the paper. *)

type cache_stats = {
  l1_per_op : float;
  l2_per_op : float;
  sim_ns_per_op : float;
  tlb_per_op : float;
  derefs_per_op : float;   (** Record-key dereferences (index counter). *)
  visits_per_op : float;   (** Node visits. *)
}

val measure_cache : env -> Pk_core.Index.t -> warm:Pk_keys.Key.t array ->
  probes:Pk_keys.Key.t array -> cache_stats
(** Steady-state simulated cache behaviour: flush, warm with one probe
    set, measure a disjoint set.  Tracing is enabled only inside. *)

val measure_cache_batched :
  env ->
  Pk_core.Index.t ->
  batch:int ->
  ?contended:bool ->
  warm:Pk_keys.Key.t array ->
  probes:Pk_keys.Key.t array ->
  unit ->
  cache_stats
(** Like {!measure_cache} but driving [lookup_into] over [batch]-sized
    probe groups (group descent).  With [~contended:true] the simulated
    cache is flushed before every batch, modelling an index evicted
    between bursts: upper-level node misses then amortise across the
    batch, which is the effect ablation A9 quantifies.  Probe slices
    are cut before measurement begins. *)

val wall_ns_per_op :
  ?repeats:int -> ?batch:int -> env -> Pk_core.Index.t -> probes:Pk_keys.Key.t array -> float
(** Wall-clock nanoseconds per lookup, simulator detached: the minimum
    over [repeats] (default 5) {!Pk_util.Measure.repeat} passes over
    the probe list.  Without [batch] each pass calls single-key
    [lookup]; with [~batch] it drives [lookup_into] over [batch]-sized
    probe slices cut before timing starts, so the timed region
    exercises the zero-allocation hot path.  Each pass's mean is also
    observed into [pk_lookup_latency_ns]. *)

val sorted_pairs : dataset -> (Pk_keys.Key.t * int) array
(** The dataset as strictly ascending (key, rid) pairs — the input
    shape bulk loading wants. *)

val load_sorted : ?fill:float -> dataset -> Pk_core.Index.t -> unit
(** Bottom-up bulk load of the whole dataset into an empty index via
    [Index.of_sorted] (default fill factor 1.0). *)

type mix_result = {
  ops_done : int;
  wall_ns_per_mixed_op : float;
  final_count : int;
}

val run_mix :
  env ->
  Pk_core.Index.t ->
  dataset ->
  ?seed:int ->
  ?distribution:Distribution.t ->
  lookup_pct:int ->
  insert_pct:int ->
  delete_pct:int ->
  ops:int ->
  unit ->
  mix_result
(** OLTP-style mixed workload (A6): keys drawn from the dataset;
    inserts re-add previously deleted keys (fresh records), deletes
    remove present ones; percentages must sum to 100.  The index must
    have been loaded first. *)
