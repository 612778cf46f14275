module Key = Pk_keys.Key
module Bitops = Pk_keys.Bitops

type granularity = Bit | Byte

let pp_granularity ppf g =
  Format.pp_print_string ppf (match g with Bit -> "bit" | Byte -> "byte")

type t = { pk_off : int; pk_len : int; pk_bits : bytes }

let units_of_key g k = match g with Bit -> 8 * Bytes.length k | Byte -> Bytes.length k
let l_units g ~l_bytes = match g with Bit -> 8 * l_bytes | Byte -> l_bytes

let diff g a b =
  match g with
  | Bit -> Key.compare_bit_detail a b
  | Byte -> Key.compare_detail a b

let clamp_nonneg n = if n < 0 then 0 else n

let encode g ~l_bytes ~base ~key =
  let c, d = diff g key base in
  (match c with Key.Eq -> invalid_arg "Partial_key.encode: key equals base" | Key.Lt | Key.Gt -> ());
  let l = l_units g ~l_bytes in
  match g with
  | Bit ->
      (* Store the l bits following the difference bit. *)
      let avail = clamp_nonneg (units_of_key Bit key - d - 1) in
      let pk_len = min l avail in
      { pk_off = d; pk_len; pk_bits = Bitops.extract_bits key ~bit_off:(d + 1) ~bit_len:pk_len }
  | Byte ->
      (* Store l bytes starting at the difference byte. *)
      let avail = clamp_nonneg (Bytes.length key - d) in
      let pk_len = min l avail in
      { pk_off = d; pk_len; pk_bits = Bytes.sub key d pk_len }

let zero_key_like k = Bytes.make (Bytes.length k) '\000'

let is_all_zero k =
  let rec go i = i = Bytes.length k || (Bytes.get k i = '\000' && go (i + 1)) in
  go 0

let encode_initial g ~l_bytes ~key =
  if is_all_zero key then
    (* The virtual base equals the key itself: no difference exists;
       represent as "diff at end, nothing stored" which always forces a
       dereference — the safe degenerate case. *)
    { pk_off = units_of_key g key; pk_len = 0; pk_bits = Bytes.empty }
  else encode g ~l_bytes ~base:(zero_key_like key) ~key

let[@pklint.hot] rec first_nonzero k i =
  if i = Bytes.length k || Bytes.get k i <> '\000' then i else first_nonzero k (i + 1)

let[@pklint.hot] initial_state g k =
  (* d(k, 0...0) is the offset of the first nonzero unit — computed by
     direct scan (this runs once per lookup). *)
  let i = first_nonzero k 0 in
  if i = Bytes.length k then Key.pack_sign 0 (units_of_key g k)
  else
    match g with
    | Byte -> Key.pack_sign 1 i
    | Bit -> Key.pack_sign 1 ((8 * i) + Bitops.leading_zeros8 (Char.code (Bytes.get k i)))

let reconstructed_prefix_units g t =
  match g with Bit -> t.pk_off + 1 + t.pk_len | Byte -> t.pk_off + t.pk_len
