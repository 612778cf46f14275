(** Heap of data records, the target of the index's record pointers.

    Records hold the authoritative full key plus an opaque payload.
    Every record starts on its own cache line (§5.2: "indirect keys are
    stored in separate L2 cache lines since they are typically
    retrieved from data records"), so a key dereference from an index
    costs one distinct line, exactly as in the paper's setup.

    Layout at record address [a]:
    [a+0: key_len u16 | a+2: payload_len u16 | a+4: pad | a+8: key bytes
     | key bytes end: payload bytes]. *)

type t

val create : ?line:int -> Pk_mem.Mem.t -> t
(** [line] is the alignment of records (default 64, the L2 block of the
    paper's Ultra machines). *)

val region : t -> Pk_mem.Mem.region

val snapshot_view : t -> t
(** Read-only view of the store pinned at the current instant (a
    {!Pk_mem.Mem.snapshot_view} over the record region): [read_key] /
    [read_payload] / comparisons see the epoch's records even after the
    live store deletes (zeroes) or reuses them; mutators raise. *)

val release_view : t -> unit
(** Release a view created by {!snapshot_view}; raises on the live
    store. *)

val insert : t -> key:Pk_keys.Key.t -> payload:bytes -> int
(** Store a record, returning its address (never {!val:null}). *)

val null : int
(** The null record address (0). *)

val delete : t -> int -> unit
(** Free a record's storage. *)

val key_len : t -> int -> int

val read_key : t -> int -> Pk_keys.Key.t
(** Copy the full key out (charges the key bytes). *)

val read_key_into : t -> int -> len:int -> bytes -> unit
(** [read_key_into t addr ~len dst] copies the first [len] bytes of
    record [addr]'s key into [dst] from offset 0, with one charged
    read ([len] is at most {!key_len}; [dst] must hold it).  Never
    allocates. *)

val read_payload : t -> int -> bytes

val count : t -> int
(** Number of live records. *)

val live_bytes : t -> int

val compare_key : t -> int -> Pk_keys.Key.t -> int
(** [compare_key t addr probe] compares the {e stored} key against
    [probe] byte-wise, packed ({!Pk_keys.Key.pack}): the ordering of
    stored key vs probe and the first differing byte index.  Never
    allocates; only the examined prefix is charged to the cache
    simulator, like a real memcmp. *)

val compare_sign : t -> int -> Pk_keys.Key.t -> int
(** The sign (-1/0/1) of {!val:compare_key}. *)

val compare_key_bits : t -> int -> Pk_keys.Key.t -> int
(** Same with the offset the first differing {e bit} (for
    bit-granularity partial keys). *)
