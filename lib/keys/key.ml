type t = bytes
type cmp = Lt | Eq | Gt

let cmp_of_int n = if n < 0 then Lt else if n > 0 then Gt else Eq
let int_of_cmp = function Lt -> -1 | Eq -> 0 | Gt -> 1
let flip = function Lt -> Gt | Gt -> Lt | Eq -> Eq

(* Packed [(cmp, off)]: [(off lsl 2) lor code], code Lt = 0, Eq = 1,
   Gt = 2 — i.e. [sign + 1] in the low two bits. *)
let[@inline] pack_sign s off = (off lsl 2) lor (s + 1)
let[@inline] pack c off = (off lsl 2) lor (match c with Lt -> 0 | Eq -> 1 | Gt -> 2)
let[@inline] packed_sign p = (p land 3) - 1
let[@inline] packed_off p = p lsr 2
let[@inline] packed_cmp p = match p land 3 with 0 -> Lt | 1 -> Eq | _ -> Gt
let[@inline] packed_flip p = (p land lnot 3) lor (2 - (p land 3))

let pp_cmp ppf c =
  Format.pp_print_string ppf (match c with Lt -> "LT" | Eq -> "EQ" | Gt -> "GT")

let length = Bytes.length
let equal = Bytes.equal
let compare = Bytes.compare

let compare_detail a b =
  let la = Bytes.length a and lb = Bytes.length b in
  let common = min la lb in
  let rec scan i =
    if i = common then
      if la = lb then (Eq, common) else if la < lb then (Lt, common) else (Gt, common)
    else
      let x = Char.code (Bytes.unsafe_get a i) and y = Char.code (Bytes.unsafe_get b i) in
      if x <> y then ((if x < y then Lt else Gt), i) else scan (i + 1)
  in
  scan 0

let compare_bit_detail a b =
  match Bitops.first_diff_bit a b with
  | None -> (Eq, 8 * Bytes.length a)
  | Some d -> (cmp_of_int (Bytes.compare a b), d)

let sub_compare k ~from other =
  let la = Bytes.length k and lb = Bytes.length other in
  let common = min la lb in
  let rec scan i =
    if i >= common then
      if la = lb then (Eq, common) else if la < lb then (Lt, common) else (Gt, common)
    else
      let x = Char.code (Bytes.unsafe_get k i) and y = Char.code (Bytes.unsafe_get other i) in
      if x <> y then ((if x < y then Lt else Gt), i) else scan (i + 1)
  in
  scan from

let to_hex k =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (Bytes.to_seq k))))

let of_string = Bytes.of_string
let to_string = Bytes.to_string

type segment = Fixed of bytes | Var of bytes

let encode_segments segs =
  let buf = Buffer.create 32 in
  List.iter
    (fun seg ->
      match seg with
      | Fixed b -> Buffer.add_bytes buf b
      | Var b ->
          Bytes.iter
            (fun c ->
              Buffer.add_char buf c;
              (* Escape embedded NUL so the 0x00 terminator still sorts
                 below any continuation: 0x00 -> 0x00 0xFF. *)
              if c = '\000' then Buffer.add_char buf '\xff')
            b;
          Buffer.add_char buf '\000')
    segs;
  Buffer.to_bytes buf

let decode_segments ~arity k =
  let pos = ref 0 in
  let len = Bytes.length k in
  let take n =
    if !pos + n > len then invalid_arg "Key.decode_segments: truncated";
    let b = Bytes.sub k !pos n in
    pos := !pos + n;
    b
  in
  let take_var () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then invalid_arg "Key.decode_segments: unterminated Var";
      let c = Bytes.get k !pos in
      incr pos;
      if c = '\000' then
        if !pos < len && Bytes.get k !pos = '\xff' then begin
          incr pos;
          Buffer.add_char buf '\000';
          go ()
        end
        else ()
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ();
    Buffer.to_bytes buf
  in
  let segs =
    List.map
      (function `Fixed n -> Fixed (take n) | `Var -> Var (take_var ()))
      arity
  in
  if !pos <> len then invalid_arg "Key.decode_segments: trailing bytes";
  segs
