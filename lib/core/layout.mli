(** Key-storage schemes and byte-exact entry layouts shared by the
    T-tree and B-tree families.

    Every index key entry starts with the 8-byte record pointer; what
    follows depends on the scheme (§1 of the paper):

    - {b Direct}: the full key value inline ([key_len] bytes).
    - {b Indirect}: nothing — the key is reached through the record
      pointer ([17]'s space-optimal design).
    - {b Partial}: fixed-size partial-key information —
      [pk_off:u16, pk_len:u8, pad:u8, pk_bits[l_bytes]]. *)

type scheme =
  | Direct of { key_len : int }
      (** Inline keys; the index only stores keys of exactly this
          length. *)
  | Indirect
  | Partial of { granularity : Pk_partialkey.Partial_key.granularity; l_bytes : int }

val scheme_tag : scheme -> string
(** ["direct" | "indirect" | "pk-bit-l2" ...] for reports. *)

val entry_size : scheme -> int

val rec_ptr : Pk_mem.Mem.region -> int -> int
(** Record pointer of the entry at address [a]. *)

val set_rec_ptr : Pk_mem.Mem.region -> int -> int -> unit

(** {1 Direct entries} *)

val read_direct_key : Pk_mem.Mem.region -> int -> key_len:int -> Pk_keys.Key.t
val write_direct_key : Pk_mem.Mem.region -> int -> Pk_keys.Key.t -> unit

(** {1 Partial entries} *)

val read_pk :
  Pk_mem.Mem.region -> int -> granularity:Pk_partialkey.Partial_key.granularity ->
  Pk_partialkey.Partial_key.t
(** Reads all three fields (including the live value bytes). *)

val read_pk_off : Pk_mem.Mem.region -> int -> int
val read_pk_len : Pk_mem.Mem.region -> int -> int

val read_pk_first_byte : Pk_mem.Mem.region -> int -> int
(** First stored value byte, [-1] when [pk_len = 0] (used as the
    FINDBITTREE branch unit at byte granularity). *)

val write_pk : Pk_mem.Mem.region -> int -> l_bytes:int -> Pk_partialkey.Partial_key.t -> unit

val resolve_pk_units :
  Pk_mem.Mem.region ->
  int ->
  scheme_granularity:Pk_partialkey.Partial_key.granularity ->
  units:bytes ->
  search:Pk_keys.Key.t ->
  rel:Pk_keys.Key.cmp ->
  off:int ->
  int
(** {!val:Pk_partialkey.Pk_compare.resolve_by_units} over the entry's
    stored units, packed.  The units are read into [units] (at least
    [l_bytes] long, reused across calls) with one charged window read,
    so the comparison allocates nothing. *)

(** {1 Node-placement policies}

    Bulk loads ([of_sorted]) can lay tree nodes out FAST-style —
    cache-line blocks nested in page blocks nested in hugepage blocks —
    instead of inheriting bump-allocation order.  The policy only moves
    node {e addresses}; the tree algorithm, key bytes and deref counts
    are untouched. *)

type policy =
  | Flat  (** Bump-allocation order — today's behaviour. *)
  | Blocked of { line_bytes : int; page_bytes : int; huge_bytes : int }
      (** Hierarchical blocking.  Sizes must be powers of two with
          [line <= page <= huge]. *)

val blocked_default : policy
(** [Blocked] with 64 B lines, 8 KiB pages, 2 MiB hugepages. *)

val policy_tag : policy -> string
(** ["flat" | "blocked"], for index tags and reports. *)

val validate_policy : policy -> unit
(** @raise Invalid_argument on non-power-of-two or non-nested sizes. *)

val gap_fill : gap:float -> float
(** Fill factor equivalent to leaving a [gap] fraction of each leaf
    free for future in-place inserts (BS-tree style gapped loading):
    [1.0 -. gap] with [gap] clamped to [0, 0.5], so the result stays
    inside the [0.5, 1.0] range bulk loads accept. *)

(** The tree shape a bulk load is about to build, root level first:
    [shape_levels.(l).(i) = (lo, hi)] is node [i]'s contiguous
    (exclusive) child range into level [l + 1]; childless nodes carry
    an empty range.  Non-bottom ranges must tile the next level. *)
type shape = { shape_node_bytes : int; shape_levels : (int * int) array array }

val validate_shape : shape -> unit

(** A placement plan: one target arena offset per (level, index), or
    the trivial flat plan.  Produced relative to 0 by {!Placement.plan},
    made absolute by {!Placement.rebase} over a reservation. *)
module Placement : sig
  type t

  val flat : t
  (** No planned offsets — builders fall back to plain allocation. *)

  val is_flat : t -> bool

  val plan : policy -> shape -> t
  (** Assign each node a relative offset: levels are banded bottom-up so
      a parent and its within-band descendants ("family") share a page
      block (a line block when they fit one), families are emitted in
      depth-first subtree order for hugepage locality, and blocks never
      straddle their boundary.  [plan Flat _ = flat]. *)

  val extent : t -> int
  (** Bytes to reserve (0 for flat), padding included. *)

  val padding : t -> int
  (** Alignment bytes the plan skips inside the reservation. *)

  val base_align : t -> int
  (** Required alignment of the reservation base — the smallest power
      of two preserving the no-straddle guarantees, capped at the
      hugepage size. *)

  val rebase : t -> base:int -> t
  (** Shift all offsets by an allocated base.
      @raise Invalid_argument if [base] is not {!base_align}-aligned. *)

  val offset : t -> level:int -> index:int -> int option
  (** Target offset of node [index] at root-first [level]; [None] under
      the flat plan.  Out-of-range coordinates under a blocked plan
      raise — the builder and its shape pass disagree. *)

  val level_count : t -> int
  (** Planned levels (0 for flat). *)

  val nodes_at : t -> level:int -> int
  val node_bytes : t -> int

  val block_sizes : t -> (int * int * int) option
  (** [(line, page, huge)] for blocked plans. *)
end
