(** Whole-program call graph + per-function effect summaries.

    Built once per analysis over every loaded unit; the interprocedural
    rules (guarded-mutation, zero-alloc-hot, lock-lattice,
    seqlock-protocol, domain-shared-mutation) resolve names and consume
    summaries from here instead of keeping private resolvers.  See
    DESIGN.md §16 for the model and its documented approximations. *)

(** {1 Lock classes}

    The concurrency lattice the sharded engine declares: shard mutexes
    (ascending index order) before the pin lock before the arena fault
    guard.  [Other] is any mutex the lattice does not order (e.g. the
    Obs registry lock); it still counts as "a lock is held" for
    domain-safety. *)

type lock_class =
  | Shard of int option  (** a [shard.lock]; [Some i] when the index is constant *)
  | Pin  (** the engine's [pin_lock] *)
  | Arena  (** the arena fault guard ([Mem.guard] / [ops.guard]) — an
               unwind scope, not mutual exclusion *)
  | Other

val rank : lock_class -> int
(** Lattice position: shard [0] < pin [1] < arena [2]; [Other] is [3],
    outside the ordered prefix. *)

val class_name : lock_class -> string
val class_equal : lock_class -> lock_class -> bool
val same_class : lock_class -> lock_class -> bool
(** Equal up to the shard index. *)

val is_mutex : lock_class -> bool
(** True for real mutual exclusion (everything but [Arena]). *)

(** {1 Per-function effects} *)

type write = {
  w_loc : Location.t;
  w_what : string;
  w_allows : string list;  (** [@pklint.allow] rule ids on the write expression itself *)
}

type effects = {
  mutable calls : (string * bool * bool) list;
      (** resolved callee node ids; the first flag is true when the
          reference occurs while a mutex is statically held, the
          second when it occurs inside a [@pklint.cold] subtree
          (allocation effects do not propagate over cold edges) *)
  mutable writes_mem : bool;  (** references an arena/region write primitive *)
  mutable unlocked_writes : write list;
      (** writes to possibly-shared mutable state with no mutex held *)
  mutable guard : bool;  (** establishes the arena guard for its thunk *)
  mutable acquires : lock_class list;
  mutable allocates : bool;  (** heap allocation outside [@pklint.cold] subtrees *)
  mutable pins : bool;  (** calls an [ops.snapshot] epoch pin *)
  mutable reads_version : bool;  (** fetches an [ops.version] seqlock word *)
  mutable bumps_version : bool;  (** [Atomic.incr]/[set] on a version cell *)
  mutable spawns : Typedtree.expression list;  (** [Domain.spawn] closure arguments *)
}

type node = {
  nid : string;  (** "Shard.Engine.read" *)
  local : string;  (** unit-local dotted name *)
  unit_name : string;
  src : string;
  loc : Location.t;
  vb : Typedtree.value_binding;
  exported : bool;
  hot : bool;
  guarded_attr : bool;
  allows : string list;  (** own + inherited [@pklint.allow] ids *)
  params : string list;  (** formal parameters of the currying spine *)
  eff : effects;
  mutable locks_thunk : lock_class list;
      (** non-empty when calling this function runs its functional
          arguments under these locks (e.g. [record_write],
          [locked_when]) *)
}

(** Transitive summaries (worklist fixpoint over the graph). *)
type summary = {
  s_writes_mem : bool;  (** writes, stopping at guard-establishing callees *)
  s_acquires : lock_class list;
  s_allocates : bool;
  s_pins : bool;
  s_reads_version : bool;
}

type t

val build : Helpers.cmt list -> t
val nodes : t -> node list
val find : t -> string -> node option
val summary : t -> string -> summary
(** Total: unknown ids get the empty summary. *)

val resolve : t -> unit_name:string -> string -> node list
(** Shared name resolution: dotted references match node ids by dotted
    suffix in either direction (the reference may carry the wrapping
    library module, or the node id may be more qualified than a
    unit-local reference); bare names match only within [unit_name]. *)

val resolve_head : t -> unit_name:string -> Typedtree.expression -> node list
(** [resolve] applied to the head when it is an identifier. *)

val effects_of_expr : t -> unit_name:string -> Typedtree.expression -> effects
(** Run the effect extraction on one expression (e.g. a [Domain.spawn]
    closure) with no lock held, resolving against the whole graph. *)

val locker_classes :
  t ->
  unit_name:string ->
  Typedtree.expression ->
  (Asttypes.arg_label * Typedtree.expression option) list ->
  lock_class list
(** Classes under which the functional arguments of this application
    run: [Mutex.protect m f] by the shape of [m], [ops.guard] thunks
    under [Arena], and calls to graph nodes with [locks_thunk]. Empty
    when the application locks nothing. *)

val flatten_apply :
  Typedtree.expression ->
  (Asttypes.arg_label * Typedtree.expression option) list ->
  Typedtree.expression * (Asttypes.arg_label * Typedtree.expression option) list
(** Normalise [f @@ x], [x |> f] and curried re-application to a
    direct head + argument list. *)

val head_name : Typedtree.expression -> string option
(** Normalised dotted path of an identifier head. *)

val handle_root : Typedtree.expression -> string option
(** The identifier at the root of a projection chain
    ([rd.eng.shards.(i).ix] → ["rd"]); [None] for non-projections.
    Used to group seqlock events per reader handle. *)

val alloc_kind : Typedtree.expression -> string option
(** A human description when the expression syntactically allocates
    (shared with the zero-alloc-hot rule). *)

val is_iterator_name : string -> bool
(** Immediately-invoked higher-order stdlib entry point: closures
    passed to it run before the call returns and inherit the caller's
    lock context. *)

val is_raise_name : string -> bool
(** Raise-like head: argument subtrees are error-path (cold). *)

val is_atomic_name : string -> bool
(** An [Atomic.*] entry point (the sanctioned cross-domain cells). *)

val is_version_cell : Typedtree.expression -> bool
(** Does this expression denote a seqlock version word (an ident or
    field named [ver]/[version])? *)

val write_prims : string list
(** Arena/region write primitives (dotted suffixes). *)

val spine_body : Typedtree.expression -> Typedtree.expression option
(** Peel the definition-time currying spine; [None] when the binding is
    a multi-case [function] (callers walk the cases themselves). *)
