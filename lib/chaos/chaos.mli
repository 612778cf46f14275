(** Chaos + differential harness for the index maintenance paths.

    A {e schedule} is a seeded random interleaving of
    insert/delete/lookup/range/cursor operations driven against one
    index configuration and cross-checked, operation by operation,
    against a [Map]-based oracle.  With a {e fault plan} active
    ({!module:Pk_fault.Fault} sites armed), injected faults abort
    operations mid-split / mid-rotation / mid-merge; the harness then
    checks that the operation unwound to a no-op and that the tree
    still passes its deep structural validator.

    Everything — key pool, operation stream, node size, scheme, fault
    schedules — derives deterministically from the integer seed, so any
    reported failure replays from the seed alone.  Failures raise
    [Failure] with a message beginning [\[chaos seed=N tree=T\]]. *)

module Fault = Pk_fault.Fault

(** The five index configurations of the acceptance matrix.  [T]/[B]
    use a baseline key scheme (direct or indirect, seed-chosen); [PkT]/
    [PkB] use partial keys (granularity and [l] seed-chosen);
    [Prefix] is the prefix B+-tree. *)
type tree = T | B | PkT | PkB | Prefix

val all_trees : tree list
val tree_tag : tree -> string

val tree_of_tag : string -> tree
(** Inverse of {!val:tree_tag}.  Raises [Invalid_argument] listing the
    valid tags when the tag is unknown. *)

type fault_plan = (string * Fault.schedule) list

val fault_sites : string list
(** Every site wired into the storage and index layers. *)

val default_fault_plan : seed:int -> fault_plan
(** A seed-derived plan: 2–4 sites, each with a seed-derived
    every-Nth / probability / one-shot schedule. *)

type outcome = {
  ops : int;  (** operations attempted *)
  applied : int;  (** operations that took effect *)
  injected : int;  (** operations aborted by an injected fault *)
  validations : int;  (** deep-validator runs (all passed) *)
}

val zero : outcome
val add : outcome -> outcome -> outcome

val run_schedule :
  ?faults:fault_plan -> ?alphabet:int -> tree:tree -> seed:int -> ops:int -> unit -> outcome
(** Run one schedule.  Arms [faults] (default none) after a
    [Fault.reset ~seed], restores a clean fault registry on exit.
    [alphabet] overrides the seed-derived per-byte alphabet (e.g. 256
    for full byte entropy).

    A seed-derived fraction of schedules also covers the batched
    access-path layer: half route a quarter of their operations through
    [lookup_into] / [insert_batch] / [delete_batch] (results checked
    slot by slot against the oracle, aborts checked for all-or-nothing
    unwinding), and a quarter seed the index through the bottom-up bulk
    loader [of_sorted] with faults armed (an aborted bulk load must
    leave the index empty and valid). *)

val run_suite :
  ?faults:(seed:int -> fault_plan) ->
  ?alphabet:int ->
  ?trees:tree list ->
  seeds:int list ->
  ops:int ->
  unit ->
  outcome
(** Run [ops]-operation schedules for every (tree, seed) pair and sum
    the outcomes.  [faults] builds each schedule's plan from its seed
    (default: no faults — pure differential mode). *)

(** {1 Kill-and-recover schedules} *)

val recover_tags : unit -> string list
(** Every registered scheme tag ({!Pk_core.Index.Registry}), with the
    extension modules' linkage forced first. *)

val run_recover_schedule :
  ?faults:fault_plan -> tag:string -> seed:int -> ops:int -> unit -> outcome
(** One kill-and-recover schedule against the registered scheme [tag]:
    drive a journaled mutation stream (singles, batches, a seed-chosen
    fraction bulk-loaded) with faults armed; an injected fault aborts
    the operation mid-batch and kills the process on the spot with
    probability 1/2 (every schedule also dies at stream end).  The
    in-memory tree is then dropped, the journal bytes re-read, and
    {!Pk_core.Index.recover} rebuilds the scheme — checked against the
    committed-prefix oracle: exact key set in order, every recovered
    rid resolving to the committed key and payload bytes, spot lookups
    over the whole key pool.  [injected] counts aborted operations;
    [validations] counts the recovery deep-validation plus the model
    sweep. *)

val run_recover_suite :
  ?faults:(seed:int -> fault_plan) ->
  ?tags:string list ->
  seeds:int list ->
  ops:int ->
  unit ->
  outcome
(** Kill-and-recover schedules for every (tag, seed) pair — [tags]
    defaults to {!recover_tags} (every registered scheme). *)

val run_rebuild_schedule :
  ?faults:fault_plan -> tag:string -> seed:int -> ops:int -> unit -> outcome
(** {!run_recover_schedule} with periodic in-place compactions
    ([ops.compact], seed-chosen gap) mixed into the journaled stream.
    Compaction is content-preserving and unlogged, so the committed-
    prefix recovery oracle is exactly the recover schedule's — even
    when the kill lands mid-compact (arm ["engine.compact"] /
    ["engine.compact.mid"]): compaction must be crash-invisible.  An
    aborted compact must also unwind to the exact pre-compact tree,
    which the schedule checks with a deep validation and count sweep
    before carrying on. *)

val run_rebuild_suite :
  ?faults:(seed:int -> fault_plan) ->
  ?tags:string list ->
  seeds:int list ->
  ops:int ->
  unit ->
  outcome
(** Rebuild schedules for every (tag, seed) pair. *)

(** {1 Parallel schedules} — writer domain vs reader domains *)

val run_parallel_schedule :
  ?readers:int -> ?shards:int -> seed:int -> ops:int -> unit -> outcome * int
(** One multicore schedule: a hash-sharded engine
    ({!Pk_shard.Shard.Engine}, seed-chosen base scheme) is bulk-loaded
    with a frozen key population, then a writer (this domain) churns a
    disjoint churn population through the aggregate ops — singles plus
    periodic cross-shard batches — while [readers] (default 2) domains
    issue optimistic validated reads.  Every validated read is
    cross-checked against the model oracle: frozen keys must return
    their exact rid at every instant; churn keys must return [None] or
    a rid the writer logged for that key before publishing it.  After
    the join, a quiescent sweep (point lookups, full iteration, deep
    validation) must match the final model exactly.  Faults stay
    disarmed (the injection machinery is not domain-safe).  Returns
    the outcome ([ops] = writer rounds + total reads; [injected] = 0)
    and the total number of reader restarts — the
    [pk_lock_restarts_total] traffic this schedule generated. *)

val run_parallel_suite :
  ?readers:int -> ?shards:int -> seeds:int list -> ops:int -> unit -> outcome * int
(** One parallel schedule per seed; outcomes and restart counts
    summed. *)
