(** Shared scaffolding for the experiment reproductions: the paper's
    two key alphabets, scheme building, cache/time measurement and
    table/JSON output helpers.  The [exp_*] modules [open] this, so
    the library aliases are re-exported. *)

module Tables = Pk_util.Tables
module Measure = Pk_util.Measure
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Mem = Pk_mem.Mem
module Cachesim = Pk_cachesim.Cachesim
module Machine = Pk_cachesim.Machine
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Partial_key = Pk_partialkey.Partial_key
module Workload = Pk_workload.Workload
module Distribution = Pk_workload.Distribution
module Experiment = Pk_harness.Experiment
module Json_out = Pk_harness.Json_out

val low_entropy : int
(** Paper's low-entropy alphabet (12 symbols, ~3.6 bits/byte). *)

val high_entropy : int
(** Paper's high-entropy alphabet (220 symbols, ~7.8 bits/byte). *)

val entropy_tag : int -> string
(** Human label for an alphabet size, e.g. ["3.6 b/B"]. *)

(** One built index under measurement: the index, its workload
    environment, and the warm/probe key sets. *)
type built = {
  name : string;
  ix : Index.t;
  env : Workload.env;
  warm : Key.t array;
  probe : Key.t array;
}

val pow2_ceil : int -> int

val machine_of_env : unit -> Machine.t option
(** The machine preset named by [$PK_MACHINE] (pkbench's [--machine]),
    if set.  Raises [Invalid_argument] listing the valid names when the
    variable names no preset.  [None] when unset — callers fall back to
    their own default (usually the paper's Ultra 30). *)

val build_schemes :
  ?machine:Machine.t ->
  ?tlb:Cachesim.tlb_config ->
  key_len:int ->
  alphabet:int ->
  n:int ->
  n_warm:int ->
  n_probe:int ->
  (string * Index.structure * Layout.scheme) list ->
  built list
(** Build and warm one index per (name, structure, scheme) triple over
    a shared key population. *)

val builders_by_tag :
  ?node_bytes:int -> key_len:int -> string list -> (string * (Workload.env -> Index.t)) list

val cache_stats : built -> Workload.cache_stats

val time_schemes : built list -> (string * float) list
(** Wall-clock each built index over its probe set with
    {!Workload.wall_ns_per_op}; (name, ns/lookup) pairs. *)

val space_per_key : built -> float
val fmt_f : ?d:int -> float -> string
val print_table : name:string -> Tables.t -> unit

val shape_check : string -> bool -> unit
(** Record a qualitative expectation from the paper; prints PASS/FAIL
    and remembers failures for the harness exit code. *)
