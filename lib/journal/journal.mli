(** Replayable write-ahead operation journal.

    The arena undo journal (PR 1) makes a single operation
    all-or-nothing {e in memory}; this module makes the operation
    {e history} replayable: every logical mutation appends a record
    (operation kind, key bytes, payload bytes, batch id) {e before} the
    index is touched, and a batch is made durable by a commit marker.
    Recovery ({!Engine.recover} in [pk_core]) replays exactly the
    committed prefix — operations of batches whose commit marker never
    made it into the journal are discarded, mirroring how the arena
    undo journal would have rolled their in-memory effects back.

    Binary format (all integers little-endian):

    {v
    record  := insert | delete | commit
    insert  := 0x01  batch:u32  klen:u16  key:klen  plen:u32  payload:plen
    delete  := 0x02  batch:u32  klen:u16  key:klen
    commit  := 0x03  batch:u32
    file    := "PKJ1"  record*  torn?
    v}

    [torn] is a proper prefix of one record, left by a crash
    mid-append; {!of_bytes} drops it.

    Batch ids are assigned by {!begin_batch}, strictly increasing
    within a journal.  Appends update the process-wide
    [pk_journal_bytes] / [pk_journal_records_total] /
    [pk_journal_commits_total] counters. *)

type t

type op =
  | Insert of { key : bytes; payload : bytes }
  | Delete of { key : bytes }

val create : unit -> t

val begin_batch : t -> int
(** Allocate the next batch id.  No bytes are appended until the first
    record of the batch. *)

val log_insert : t -> batch:int -> key:bytes -> payload:bytes -> unit
(** Append an insert record.  The key and payload bytes are copied.
    Raises [Invalid_argument] for keys over 65535 bytes. *)

val log_delete : t -> batch:int -> key:bytes -> unit

val commit : t -> batch:int -> unit
(** Append the batch's commit marker; its records become part of the
    committed prefix. *)

(** {1 Accounting} *)

val byte_size : t -> int
(** Bytes appended so far (excluding the file magic). *)

val record_count : t -> int
(** Operation records appended (commit markers not included). *)

val commit_count : t -> int

val last_batch : t -> int
(** Highest batch id handed out by {!begin_batch} (0 if none). *)

(** {1 Replay} *)

val committed_batches : t -> int list
(** Batch ids with a commit marker, ascending. *)

val committed_ops : t -> int * (int * op) list
(** The number of committed batches, and the operation records of
    committed batches in append order, paired with their batch id —
    the exact committed prefix recovery must restore. *)

val iter_records : t -> (off:int -> batch:int -> op option -> unit) -> unit
(** Every record in append order — [None] marks a commit record —
    with its byte offset: the raw view [pkdump journal] prints.
    Raises [Invalid_argument] on a malformed buffer. *)

(** {1 Serialization} *)

val to_bytes : t -> bytes
(** Magic plus the raw record buffer. *)

val of_bytes : bytes -> t
(** Parse and validate a serialized journal (counts are recomputed,
    [begin_batch] resumes after the highest batch id seen).  Every
    complete record is kept; an incomplete final record — a torn tail
    left by a crash mid-append — is dropped as part of the uncommitted
    suffix, and later appends overwrite it; {!torn_bytes} reports how
    many bytes went.  Without checksums the framing cannot tell a tear
    from a corrupted [klen]/[plen] in a committed record mid-file that
    points past the end: that record and every batch after it are
    dropped the same way, and {!torn_bytes} is the only signal.  Raises
    [Invalid_argument] on bad magic, an unknown record tag or batch
    id 0. *)

val torn_bytes : t -> int
(** Bytes of the incomplete final record {!of_bytes} (or {!load})
    dropped; 0 for a journal with a clean tail or built in process. *)

val save : t -> string -> unit
val load : string -> t
