(** Chaos + differential harness for the index maintenance paths.

    Every single-writer schedule is an {!Opstream} scenario: a seeded
    stream of insert/delete/lookup/range/batch/compact operations
    driven against one index and cross-checked, operation by operation,
    against a [Map]-based oracle.  With a {e fault plan} active
    ({!module:Pk_fault.Fault} sites armed), injected faults abort
    operations mid-split / mid-rotation / mid-merge / mid-compact; the
    interpreter then checks that the operation unwound to a no-op and
    that the tree still passes its deep structural validator.  Every
    divergence is shrunk to a minimal op list and reported with its
    seed.  {!run_parallel_schedule} is the one multi-domain protocol
    outside the op stream. *)

module Fault = Pk_fault.Fault

type fault_plan = (string * Fault.schedule) list

val fault_sites : string list
(** Every site wired into the storage and index layers. *)

val default_fault_plan : seed:int -> fault_plan
(** A seed-derived plan: 2–4 sites, each with a seed-derived
    every-Nth / probability / one-shot schedule. *)

type outcome = {
  ops : int;  (** operations attempted *)
  applied : int;  (** key mutations that took effect (per key for batches and bulk loads) *)
  injected : int;  (** operations aborted by an injected fault *)
  validations : int;
      (** deep validations after injected faults, plus the end-of-stream
          checks (the final sweep; in [Recover] mode also the recovery's
          own deep validation) — the periodic every-16-ops check is not
          counted *)
}

val zero : outcome
val add : outcome -> outcome -> outcome

(** {1 The op-stream oracle} *)

module Opstream : sig
  type config = {
    node_bytes : int;  (** 128, 192 or 256 *)
    key_len : int;  (** 8–16 *)
    alphabet : int;  (** per-byte alphabet the pool was drawn from *)
    fill : float;  (** bulk-load fill factor *)
  }

  (** Keys are indices into the scenario's pool. *)
  type op =
    | Insert of int
    | Delete of int
    | Lookup of int
    | Range of int * int  (** inclusive, either order *)
    | Batch_insert of int list
    | Batch_delete of int list
    | Batch_lookup of int list  (** through [lookup_into] *)
    | Compact  (** in place, gap 0, 0.1 or 0.25 by position *)

  type scenario = {
    seed : int;  (** seeds the fault registry, payloads and the kill coin *)
    config : config;
    pool : Pk_keys.Key.t array;  (** distinct keys *)
    bulk : int;  (** the first [bulk] pool keys are bulk-loaded ([of_sorted]) before [ops] *)
    ops : op list;
  }

  (** [Classic] drives the index directly.  [Recover] wraps it in
      {!Pk_core.Index.journaled}; on an injected fault a seeded coin
      kills the process on the spot, and every stream dies at its end.
      The tree is then dropped, the journal bytes re-read and the same
      build recovered through {!Pk_core.Index.recover_with} — the
      body of {!Pk_core.Index.recover} — and checked against the
      committed-prefix oracle (keys and payload bytes; rids are not
      durable). *)
  type mode = Classic | Recover

  val registry : string -> scenario -> Pk_mem.Mem.t -> Pk_records.Record_store.t -> Pk_core.Index.t
  (** [registry tag sc] builds [tag] at the scenario's node size and
      key length. *)

  val generate : ?alphabet:int -> seed:int -> ops:int -> unit -> scenario
  (** The one generator: config, a pool of 32–64 keys, a bulk prefix in
      a quarter of scenarios, and [ops] operations, all from [seed].
      [alphabet] overrides the drawn per-byte alphabet (e.g. 256 for
      full byte entropy). *)

  val to_string : scenario -> string
  (** Seed, alphabet, bulk size and the op list, as a replay:
      [generate ~alphabet ~seed ~ops] rebuilds the config and pool,
      then [bulk] and [ops] are set from the printout. *)

  val run :
    ?faults:fault_plan ->
    mode:mode ->
    build:(Pk_mem.Mem.t -> Pk_records.Record_store.t -> Pk_core.Index.t) ->
    scenario ->
    (outcome, int * string) result
  (** The one interpreter.  Arms [faults] (default none) after a
      [Fault.reset ~seed], restores a clean registry on exit.  Checks:
      every result slot by slot against the oracle; [count] after every
      op; deep validation and a full iteration every 16 ops and after
      every injected fault, plus a lookup of every key the aborted op
      touched; a final sweep of iteration, [seq_from] and a lookup from
      every pool key, with each rid resolving to its key and payload.
      Any exception escaping the index is a divergence:
      [Error (op, msg)], where op 0 is the bulk load and the op after
      the last one run is the end-of-stream sweep; [msg] ends with the
      index's last descent-trace events. *)

  val shrink :
    ?faults:fault_plan ->
    mode:mode ->
    build:(Pk_mem.Mem.t -> Pk_records.Record_store.t -> Pk_core.Index.t) ->
    scenario ->
    scenario
  (** Delta-debug a failing scenario's op list (and bulk load) to a
      smaller one that still fails under the same mode and fault plan. *)

  val check :
    ?faults:fault_plan ->
    mode:mode ->
    build:(Pk_mem.Mem.t -> Pk_records.Record_store.t -> Pk_core.Index.t) ->
    label:string ->
    scenario ->
    (outcome, string) result
  (** {!run}; on a divergence, {!shrink} and render a report carrying
      the seed, [label], the original divergence and the shrunk op
      list. *)

  val suite :
    ?faults:(seed:int -> fault_plan) ->
    ?alphabet:int ->
    ?tags:string list ->
    mode:mode ->
    seeds:int list ->
    ops:int ->
    on_failure:(string -> unit) ->
    unit ->
    outcome
  (** {!check} the generated scenario of every seed against every tag
      (default: every {!Pk_core.Index.Registry} tag), summing the outcomes of
      the passing schedules and handing each failure report to
      [on_failure]. *)
end

(** {1 Parallel schedules} — writer domain vs reader domains *)

val run_parallel_schedule :
  ?readers:int -> ?shards:int -> seed:int -> ops:int -> unit -> outcome * int
(** One multicore schedule: a hash-sharded engine
    ({!Pk_core.Shard.Engine}, seed-chosen base scheme) is bulk-loaded
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
