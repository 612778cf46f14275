(** The one key sort: every library site that orders keys — batch
    probes ({!Engine}'s lookup and mutation batches), journal recovery
    ({!Engine.recover}) and rebuild ({!sort_entries} feeding
    [of_sorted ~gap]) — orders them here.

    Keys are compared on a packed prefix first: the leading {!pk_bytes}
    bytes big-endian in one OCaml int, the fixed-size partial key of the
    compressed-key sort literature.  A full {!Pk_keys.Key.compare} runs
    only when two packed prefixes are equal, and the slot index breaks
    ties between byte-equal keys, so the order is total and stable. *)

module Key = Pk_keys.Key

val pk_bytes : int
(** Key bytes packed into the sort tag (7 — the widest big-endian
    prefix a nonnegative OCaml int holds). *)

val pack : Key.t -> int
(** Pack a key's first {!pk_bytes} bytes big-endian, zero-padded.
    Order-safe: [pack a < pack b] implies [a < b]; equal packs are
    resolved by full-key comparison.  Allocation-free. *)

val sort_perm : int array -> Key.t array -> int array -> int -> unit
(** [sort_perm pks keys perm n] sorts the slots [perm.[0..n)] so the
    referenced keys ascend, where [pks.(s) = pack keys.(s)] for every
    slot [s] in [perm].  Byte-equal keys keep ascending slot order,
    which makes batched mutations observationally equal to applying
    the ops singly in batch order.  Allocation-free. *)

type stats = {
  sorted_keys : int;  (** entries after duplicate-key dedup *)
  runs : int;  (** sorted runs merged *)
  pk_collisions : int;
      (** adjacent distinct output keys sharing a packed prefix —
          the pairs only a full-key comparison could order;
          independent of the run count *)
}

val sort_entries :
  ?domains:int -> ?spawn:bool -> (Key.t * 'a) array -> (Key.t * 'a) array * stats
(** Sort entries ascending by key and drop duplicate keys (the first
    occurrence in input order wins, matching repeated-insert
    semantics): the input of [of_sorted].  The input is split into
    [domains] (default 1) contiguous runs, each sorted with
    {!sort_perm} in its own spawned domain, then merged k-way on the
    packed heads in the calling domain.  [spawn:false] keeps the same
    runs and merge but sorts every run in the calling domain —
    byte-identical output, used for critical-path timing and
    deterministic tests. *)
