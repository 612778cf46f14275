(* Tests for Key, Bitops and Keygen. *)

module Key = Pk_keys.Key
module Bitops = Pk_keys.Bitops
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng

let b = Bytes.of_string

let test_compare_detail () =
  let check name a bb exp_cmp exp_d =
    let c, d = Key.compare_detail (b a) (b bb) in
    Alcotest.check Support.cmp_testable (name ^ " cmp") exp_cmp c;
    Alcotest.(check int) (name ^ " diff") exp_d d
  in
  check "equal" "abc" "abc" Key.Eq 3;
  check "lt at 0" "abc" "bbc" Key.Lt 0;
  check "gt at 2" "abz" "abc" Key.Gt 2;
  check "prefix lt" "ab" "abc" Key.Lt 2;
  check "prefix gt" "abc" "ab" Key.Gt 2;
  check "empty vs empty" "" "" Key.Eq 0;
  check "empty vs x" "" "x" Key.Lt 0

let test_compare_bit_detail () =
  let check name a bb exp_cmp exp_d =
    let c, d = Key.compare_bit_detail (b a) (b bb) in
    Alcotest.check Support.cmp_testable (name ^ " cmp") exp_cmp c;
    Alcotest.(check int) (name ^ " diff") exp_d d
  in
  (* 'a' = 0x61 = 01100001, 'c' = 0x63 = 01100011: differ at bit 6. *)
  check "bit 6" "a" "c" Key.Lt 6;
  (* 0x80 vs 0x00: bit 0 *)
  let c, d = Key.compare_bit_detail (Bytes.make 1 '\x80') (Bytes.make 1 '\x00') in
  Alcotest.check Support.cmp_testable "msb cmp" Key.Gt c;
  Alcotest.(check int) "msb diff" 0 d;
  check "second byte" "aa" "ab" Key.Lt (8 + 6);
  check "equal keys" "zz" "zz" Key.Eq 16

let test_sub_compare () =
  let k = b "hello" and o = b "helpo" in
  let c, d = Key.sub_compare k ~from:3 o in
  Alcotest.check Support.cmp_testable "lt" Key.Lt c;
  Alcotest.(check int) "diff at 3" 3 d;
  let c2, d2 = Key.sub_compare k ~from:0 (b "hello") in
  Alcotest.check Support.cmp_testable "eq" Key.Eq c2;
  Alcotest.(check int) "eq len" 5 d2

let test_flip () =
  Alcotest.check Support.cmp_testable "flip lt" Key.Gt (Key.flip Key.Lt);
  Alcotest.check Support.cmp_testable "flip gt" Key.Lt (Key.flip Key.Gt);
  Alcotest.check Support.cmp_testable "flip eq" Key.Eq (Key.flip Key.Eq)

let test_get_bit () =
  let k = Bytes.make 2 '\000' in
  Bytes.set k 0 '\x80';
  Bytes.set k 1 '\x01';
  Alcotest.(check int) "bit 0" 1 (Bitops.get_bit k 0);
  Alcotest.(check int) "bit 1" 0 (Bitops.get_bit k 1);
  Alcotest.(check int) "bit 15" 1 (Bitops.get_bit k 15);
  Alcotest.check_raises "out of range" (Invalid_argument "Bitops.get_bit") (fun () ->
      ignore (Bitops.get_bit k 16))

let test_first_diff_bit () =
  Alcotest.(check (option int)) "equal" None (Bitops.first_diff_bit (b "xy") (b "xy"));
  Alcotest.(check (option int)) "bit 6" (Some 6) (Bitops.first_diff_bit (b "a") (b "c"));
  (* "a" zero-padded vs "ab": second byte 0x00 vs 'b' = 0x62 = 01100010,
     first set bit at offset 1 within the byte -> bit 9. *)
  Alcotest.(check (option int))
    "length difference vs zero padding" (Some 9)
    (Bitops.first_diff_bit (b "a") (b "ab"));
  Alcotest.(check (option int)) "msb" (Some 0)
    (Bitops.first_diff_bit (Bytes.make 1 '\x80') (Bytes.make 1 '\x00'))

let test_extract_bits () =
  (* 0xB8 = 10111000 *)
  let k = Bytes.make 1 '\xB8' in
  let e = Bitops.extract_bits k ~bit_off:1 ~bit_len:4 in
  (* bits 1..4 = 0111 -> packed 0111_0000 = 0x70 *)
  Alcotest.(check string) "packed" "70" (Key.to_hex e);
  let none = Bitops.extract_bits k ~bit_off:3 ~bit_len:0 in
  Alcotest.(check int) "empty" 0 (Bytes.length none);
  (* beyond end reads zero *)
  let past = Bitops.extract_bits k ~bit_off:6 ~bit_len:8 in
  Alcotest.(check string) "zero padded" "00" (Key.to_hex past)

let test_compare_bits_at () =
  let k = Bytes.make 1 '\xB8' in
  (* 10111000 *)
  let packed = Bytes.make 1 '\xE0' in
  (* 111..... *)
  let c, i = Support.unpack (Bitops.compare_bits_at k ~bit_off:2 ~packed ~bit_len:3) in
  (* k bits 2..4 = 111 = packed -> equal *)
  Alcotest.check Support.cmp_testable "equal" Key.Eq c;
  Alcotest.(check int) "agree length" 3 i;
  let c2, i2 = Support.unpack (Bitops.compare_bits_at k ~bit_off:1 ~packed ~bit_len:3) in
  (* k bits 1..3 = 011 vs 111: differ at rel 0, k smaller *)
  Alcotest.check Support.cmp_testable "lt" Key.Lt c2;
  Alcotest.(check int) "at rel 0" 0 i2

let test_roundtrip_extract_compare seed =
  let rng = Prng.create (Int64.of_int seed) in
  let len = 1 + Prng.int rng 12 in
  let k = Bytes.init len (fun _ -> Char.chr (Prng.int rng 256)) in
  let off = Prng.int rng (8 * len) in
  let l = Prng.int rng (min 32 ((8 * len) - off + 1)) in
  let packed = Bitops.extract_bits k ~bit_off:off ~bit_len:l in
  let c, i = Support.unpack (Bitops.compare_bits_at k ~bit_off:off ~packed ~bit_len:l) in
  c = Key.Eq && i = l

let test_keygen_uniform_properties () =
  let rng = Prng.create 99L in
  let keys = Keygen.uniform ~rng ~key_len:8 ~alphabet:12 2000 in
  Alcotest.(check int) "count" 2000 (Array.length keys);
  let seen = Hashtbl.create 4096 in
  Array.iter
    (fun k ->
      Alcotest.(check int) "length" 8 (Bytes.length k);
      if Hashtbl.mem seen k then Alcotest.fail "duplicate key";
      Hashtbl.add seen k ())
    keys;
  (* every byte is one of the 12 spread symbol values *)
  let valid = Hashtbl.create 12 in
  for s = 0 to 11 do
    Hashtbl.add valid (s * 256 / 12) ()
  done;
  Array.iter
    (fun k -> Bytes.iter (fun c -> if not (Hashtbl.mem valid (Char.code c)) then
        Alcotest.failf "byte %d not an alphabet symbol" (Char.code c)) k)
    keys

let test_keygen_deterministic () =
  let k1 = Keygen.uniform ~rng:(Prng.create 5L) ~key_len:6 ~alphabet:220 100 in
  let k2 = Keygen.uniform ~rng:(Prng.create 5L) ~key_len:6 ~alphabet:220 100 in
  Alcotest.(check bool) "same seed, same keys" true
    (Array.for_all2 Key.equal k1 k2)

let test_keygen_space_check () =
  Alcotest.(check bool) "too small a space rejected" true
    (try
       ignore (Keygen.uniform ~rng:(Prng.create 1L) ~key_len:1 ~alphabet:2 100);
       false
     with Invalid_argument _ -> true)

let test_keygen_sequential () =
  let keys = Keygen.sequential ~key_len:4 ~start:250 10 in
  Alcotest.(check int) "count" 10 (Array.length keys);
  Alcotest.(check string) "encodes big-endian" "000000fa" (Key.to_hex keys.(0));
  Alcotest.(check string) "carries across bytes" "00000100" (Key.to_hex keys.(6));
  for i = 1 to 9 do
    if Key.compare keys.(i - 1) keys.(i) >= 0 then Alcotest.fail "not ascending"
  done

let test_keygen_prefixed () =
  let rng = Prng.create 3L in
  let keys =
    Keygen.prefixed ~rng ~prefixes:[| "http://a/"; "http://bb/" |] ~suffix_len:6 ~alphabet:64 200
  in
  Array.iter
    (fun k ->
      let s = Key.to_string k in
      Alcotest.(check bool) "has prefix" true
        (String.length s >= 9
        && (String.sub s 0 9 = "http://a/" || String.sub s 0 10 = "http://bb/")))
    keys

let test_entropy_helpers () =
  Alcotest.(check int) "3.6 bits ~ 12" 12 (Keygen.alphabet_for_entropy 3.58);
  Alcotest.(check int) "paper low" 12 Keygen.paper_low;
  Alcotest.(check int) "paper high" 220 Keygen.paper_high;
  Alcotest.(check (float 0.01)) "entropy of 12" 3.58 (Keygen.entropy_of_alphabet 12);
  Alcotest.(check (float 0.01)) "entropy of 220" 7.78 (Keygen.entropy_of_alphabet 220);
  Alcotest.(check int) "clamped high" 256 (Keygen.alphabet_for_entropy 9.0);
  Alcotest.(check int) "clamped low" 2 (Keygen.alphabet_for_entropy 0.0)

let test_shuffle_permutation () =
  let arr = Array.init 100 (fun i -> i) in
  let rng = Prng.create 17L in
  let copy = Array.copy arr in
  Keygen.shuffle ~rng copy;
  Alcotest.(check bool) "moved" true (copy <> arr);
  Array.sort compare copy;
  Alcotest.(check bool) "same elements" true (copy = arr)

let test_segments_roundtrip () =
  let segs = [ Key.Fixed (b "\x00\x01"); Key.Var (b "hel\x00lo"); Key.Var (b "") ] in
  let enc = Key.encode_segments segs in
  let dec = Key.decode_segments ~arity:[ `Fixed 2; `Var; `Var ] enc in
  Alcotest.(check bool) "roundtrip" true (segs = dec)

let test_segments_order_preserving seed =
  let rng = Prng.create (Int64.of_int seed) in
  let rand_var () =
    Key.Var (Bytes.init (Prng.int rng 6) (fun _ -> Char.chr (Prng.int rng 4)))
  in
  let rand_fixed () = Key.Fixed (Bytes.init 2 (fun _ -> Char.chr (Prng.int rng 4))) in
  let a = [ rand_fixed (); rand_var (); rand_var () ] in
  let b' = [ rand_fixed (); rand_var (); rand_var () ] in
  let seg_bytes = function Key.Fixed x | Key.Var x -> x in
  let cmp_lists x y =
    compare (List.map seg_bytes x) (List.map seg_bytes y)
  in
  let expected = compare (cmp_lists a b') 0 in
  let got = compare (Key.compare (Key.encode_segments a) (Key.encode_segments b')) 0 in
  expected = got

let () =
  Alcotest.run "pk_keys"
    [
      ( "key",
        [
          Alcotest.test_case "compare_detail" `Quick test_compare_detail;
          Alcotest.test_case "compare_bit_detail" `Quick test_compare_bit_detail;
          Alcotest.test_case "sub_compare" `Quick test_sub_compare;
          Alcotest.test_case "flip" `Quick test_flip;
        ] );
      ( "bitops",
        [
          Alcotest.test_case "get_bit" `Quick test_get_bit;
          Alcotest.test_case "first_diff_bit" `Quick test_first_diff_bit;
          Alcotest.test_case "extract_bits" `Quick test_extract_bits;
          Alcotest.test_case "compare_bits_at" `Quick test_compare_bits_at;
          Support.seeded_qtest ~count:500 "extract/compare roundtrip" test_roundtrip_extract_compare;
        ] );
      ( "keygen",
        [
          Alcotest.test_case "uniform properties" `Quick test_keygen_uniform_properties;
          Alcotest.test_case "deterministic" `Quick test_keygen_deterministic;
          Alcotest.test_case "space check" `Quick test_keygen_space_check;
          Alcotest.test_case "sequential" `Quick test_keygen_sequential;
          Alcotest.test_case "prefixed" `Quick test_keygen_prefixed;
          Alcotest.test_case "entropy helpers" `Quick test_entropy_helpers;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
        ] );
      ( "segments",
        [
          Alcotest.test_case "roundtrip" `Quick test_segments_roundtrip;
          Support.seeded_qtest ~count:1000 "order preserving" test_segments_order_preserving;
        ] );
    ]
