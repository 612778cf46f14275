(** Fixed-size partial keys (§3 of the paper).

    A key is represented in a partial-key tree by (1) a pointer to the
    data record holding the full key, (2) the offset of the first unit
    (bit or byte) at which the key differs from its {e base key} — the
    key visited immediately before it — and (3) up to [l] units of the
    key's value around that offset.

    Two offset granularities are supported (§5.2):

    - {b Bit}: [pk_off] is the first differing bit; [pk_bits] holds the
      [l_bits] bits {e following} that bit (packed, left-aligned).  The
      difference bit itself is never stored — its value is implied by
      which side of the base key the key lies on.
    - {b Byte}: [pk_off] is the first differing byte; [pk_bits] holds
      [l_bytes] bytes {e starting at} that byte (the whole difference
      byte is stored because the position of the difference within it
      is not recorded).

    Keys indexed by partial-key trees must form a prefix-free set when
    lengths vary (guaranteed by fixed-length keys, or by the
    terminated encoding of {!val:Pk_keys.Key.encode_segments}); the
    comparison lemmas treat "end of key" as a unit smaller than any
    byte, which prefix-freedom makes unobservable. *)

type granularity = Bit | Byte

val pp_granularity : Format.formatter -> granularity -> unit

type t = {
  pk_off : int;   (** Offset of the difference unit w.r.t. the base key. *)
  pk_len : int;   (** Number of units stored in [pk_bits] (<= l). *)
  pk_bits : bytes;
      (** Bit granularity: packed bit string of [pk_len] bits.
          Byte granularity: [pk_len] raw bytes. *)
}

val units_of_key : granularity -> Pk_keys.Key.t -> int
(** Length of a key in units ([8*length] bits or [length] bytes). *)

val l_units : granularity -> l_bytes:int -> int
(** The parameter [l] expressed in units: [8*l_bytes] bits, or
    [l_bytes] bytes. *)

val diff : granularity -> Pk_keys.Key.t -> Pk_keys.Key.t -> Pk_keys.Key.cmp * int
(** [(c, d)] where [c] compares the first key to the second and [d] is
    the offset of the first differing unit ([= units] when equal). *)

val encode : granularity -> l_bytes:int -> base:Pk_keys.Key.t -> key:Pk_keys.Key.t -> t
(** Partial key for [key] relative to [base].  [key <> base]
    required (keys are unique). *)

val encode_initial : granularity -> l_bytes:int -> key:Pk_keys.Key.t -> t
(** Partial key for a key with no real base (the leftmost key of a
    root): encoded against the virtual all-zero key, matching
    {!val:initial_state}. *)

val initial_state : granularity -> Pk_keys.Key.t -> int
(** Search state before the first comparison, packed
    ({!Pk_keys.Key.pack}): [(Gt, d)] with [d] the search key's
    difference from the virtual all-zero key (its first nonzero unit),
    or [(Eq, units)] for an all-zero search key.  Allocation-free. *)

val reconstructed_prefix_units : granularity -> t -> int
(** Units of the key derivable from this partial key given its base:
    [pk_off + pk_len] for byte granularity, [pk_off + 1 + pk_len] for
    bit granularity (the implied difference bit) — used by
    space/analysis reporting. *)
