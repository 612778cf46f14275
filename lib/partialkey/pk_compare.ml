module Key = Pk_keys.Key
module Bitops = Pk_keys.Bitops

(* Every result is a packed [(cmp, off)] ({!Key.pack}); [need_units]
   lies outside that range (packed values are non-negative). *)
let need_units = -1

let[@inline] [@pklint.hot] resolve_by_offset ~rel ~off ~pk_off =
  match rel with
  | Key.Lt | Key.Gt ->
      if pk_off < off then
        (* Theorem 3.1: the index key diverges from the base earlier
           than the search key does, so the index key sits on the far
           side: c(search, index) = c(base, search). *)
        Key.pack (Key.flip rel) pk_off
      else if pk_off > off then
        (* The index key shares more of the base than the search key:
           c(search, index) = c(search, base). *)
        Key.pack rel off
      else need_units
  | Key.Eq ->
      if pk_off < off then
        (* The index key diverges from the (unresolved) base at
           [pk_off]; the search key agrees with that base past it.
           Since in-node keys ascend, the index key's unit there is
           greater: search < index (Appendix A case 2). *)
        Key.pack_sign (-1) pk_off
      else if pk_off > off then
        (* Nothing new can be concluded (Appendix A case 1). *)
        Key.pack_sign 0 off
      else need_units

let bits_of k = 8 * Bytes.length k

(* Bit of [k] at offset [i], 0 when past the end. *)
let bit_or_zero k i =
  if i >= bits_of k then 0
  else (Char.code (Bytes.get k (i lsr 3)) lsr (7 - (i land 7))) land 1

let[@pklint.hot] resolve_units_bit ~search ~rel ~off ~pk_len ~pk_bits =
  (* The unit at [off] itself: for Lt/Gt states both keys flip the
     base's bit the same way, so it is equal and skipped (Fig. 3 notes
     the difference bit is never stored).  For Eq states the index
     key's bit is 1 (it is greater than its base) while the search
     key's is unknown (Appendix A case 3). *)
  match rel with
  | Key.Eq when off >= bits_of search ->
      (* Search key exhausted at the implied bit: boundary case,
         degrade to unresolved. *)
      Key.pack_sign 0 off
  | Key.Eq when bit_or_zero search off = 0 -> Key.pack_sign (-1) off
  | Key.Lt | Key.Gt | Key.Eq ->
      (* Stored bits start right after the implied one; the scan's
         offset is relative to them. *)
      let proceed_from = off + 1 in
      Bitops.compare_bits_at search ~bit_off:proceed_from ~packed:pk_bits ~bit_len:pk_len
      + (proceed_from lsl 2)

(* Both keys agree on bytes [0, off); compare from [off] against the
   stored bytes (the first of which is the index key's difference
   byte, stored whole).  A search key ending inside the window is a
   proper prefix of the index key's known prefix, hence smaller. *)
let[@pklint.hot] rec bytes_scan search off pk_len pk_bits i =
  if i = pk_len then Key.pack_sign 0 (off + pk_len)
  else if off + i >= Bytes.length search then Key.pack_sign (-1) (off + i)
  else
    let s = Char.code (Bytes.get search (off + i)) in
    let j = Char.code (Bytes.get pk_bits i) in
    if s < j then Key.pack_sign (-1) (off + i)
    else if s > j then Key.pack_sign 1 (off + i)
    else bytes_scan search off pk_len pk_bits (i + 1)

let[@pklint.hot] resolve_by_units g ~search ~rel ~off ~pk_len ~pk_bits =
  match g with
  | Partial_key.Bit -> resolve_units_bit ~search ~rel ~off ~pk_len ~pk_bits
  | Partial_key.Byte -> bytes_scan search off pk_len pk_bits 0

let compare_partkey g ~search ~(pk : Partial_key.t) ~rel ~off =
  let p = resolve_by_offset ~rel ~off ~pk_off:pk.pk_off in
  if p <> need_units then p
  else resolve_by_units g ~search ~rel ~off ~pk_len:pk.pk_len ~pk_bits:pk.pk_bits
