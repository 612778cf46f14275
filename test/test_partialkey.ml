(* Tests for Partial_key and Pk_compare: Theorem 3.1, COMPAREPARTKEY
   (Fig. 3 + Appendix A), and the paper's worked Example 3.2. *)

module Key = Pk_keys.Key
module Prng = Pk_util.Prng
module Partial_key = Pk_partialkey.Partial_key
module Pk_compare = Pk_partialkey.Pk_compare

let byte_key bits =
  (* "10111" -> single byte 10111000 *)
  let k = Bytes.make 1 '\000' in
  String.iteri
    (fun i c -> if c = '1' then Bytes.set k 0 (Char.chr (Char.code (Bytes.get k 0) lor (0x80 lsr i))))
    bits;
  k

(* {2 Theorem 3.1 against brute force} *)

let check_theorem g ki kj kb =
  let ci, di = Partial_key.diff g ki kb in
  let cj, dj = Partial_key.diff g kj kb in
  if ci = cj && ci <> Key.Eq && di <> dj then begin
    let c_true, d_true = Partial_key.diff g ki kj in
    let d_thm = min di dj in
    let c_thm = if di > dj then Key.flip ci else ci in
    if d_true <> d_thm || c_true <> c_thm then
      Alcotest.failf "theorem violated: ki=%s kj=%s kb=%s (got %s/%d want %s/%d)"
        (Key.to_hex ki) (Key.to_hex kj) (Key.to_hex kb)
        (Format.asprintf "%a" Key.pp_cmp c_thm) d_thm
        (Format.asprintf "%a" Key.pp_cmp c_true) d_true
  end

let prop_theorem g seed =
  let rng = Prng.create (Int64.of_int seed) in
  let len = 1 + Prng.int rng 6 in
  (* Small alphabet maximises shared prefixes and offset collisions. *)
  let rand_key () = Bytes.init len (fun _ -> Char.chr (Prng.int rng 4)) in
  for _ = 1 to 20 do
    check_theorem g (rand_key ()) (rand_key ()) (rand_key ())
  done;
  true

(* {2 compare_partkey soundness}

   Simulate the exact chain a node sweep performs: sorted keys
   k0 < k1 < ... all above a base key; the search key is also above the
   base.  Walk the chain with compare_partkey and verify every definite
   answer (and its difference offset) against ground truth. *)

let run_chain g ~l_bytes ~base ~keys ~search =
  let rel = ref Key.Gt in
  let c0, d0 = Partial_key.diff g search base in
  if c0 <> Key.Gt then invalid_arg "run_chain: search must exceed base";
  let off = ref d0 in
  let stopped = ref false in
  Array.iteri
    (fun i k ->
      if not !stopped then begin
      let kb = if i = 0 then base else keys.(i - 1) in
      let pk = Partial_key.encode g ~l_bytes ~base:kb ~key:k in
      let c, o = Support.unpack (Pk_compare.compare_partkey g ~search ~pk ~rel:!rel ~off:!off) in
      let c_true, d_true = Partial_key.diff g search k in
      (match c with
      | Key.Lt | Key.Gt ->
          if c <> c_true then
            Alcotest.failf "entry %d: claimed %a, truth %a (search=%s key=%s base=%s)" i
              Key.pp_cmp c Key.pp_cmp c_true (Key.to_hex search) (Key.to_hex k) (Key.to_hex kb);
          if o <> d_true then
            Alcotest.failf "entry %d: claimed offset %d, truth %d" i o d_true
      | Key.Eq ->
          (* Unresolved: the claimed agreement must hold. *)
          if c_true <> Key.Eq && d_true < o then
            Alcotest.failf "entry %d: claims agreement on %d units but keys differ at %d" i o
              d_true);
      (* Advance the chain exactly as FINDNODE would; a definite Lt
         ends the sweep (the state is relative to this key's base). *)
      match c with
      | Key.Gt ->
          rel := Key.Gt;
          off := o
      | Key.Eq ->
          rel := Key.Eq;
          off := o
      | Key.Lt -> stopped := true
      end)
    keys

let prop_chain g ~l_bytes seed =
  let rng = Prng.create (Int64.of_int seed) in
  let len = 2 + Prng.int rng 5 in
  let alphabet = 2 + Prng.int rng 3 in
  let n = 3 + Prng.int rng 12 in
  let pool =
    try Pk_keys.Keygen.uniform ~rng ~key_len:len ~alphabet (n + 2)
    with Invalid_argument _ -> [||]
  in
  if Array.length pool = 0 then true
  else begin
    Array.sort Key.compare pool;
    let base = pool.(0) in
    let keys = Array.sub pool 1 (Array.length pool - 2) in
    (* Search key: above base; sometimes one of the indexed keys. *)
    let search =
      if Prng.bool rng then keys.(Prng.int rng (Array.length keys))
      else pool.(1 + Prng.int rng (Array.length pool - 1))
    in
    run_chain g ~l_bytes ~base ~keys ~search;
    true
  end

(* {2 Example 3.2 from the paper}

   Node keys (5-bit values placed in the high bits of one byte),
   l = 1 bit, base 00101, search 10111.  The expected comparison
   sequence is [EQ,2],[EQ,2],[GT,3],[GT,3],[LT,1] with no dereference
   needed by FINDNODE. *)

let example_32_node () =
  let base = byte_key "00101" in
  let keys = [| "10001"; "10010"; "10100"; "10101"; "11000" |] in
  (base, Array.map byte_key keys)

let test_example_32_sequence () =
  let base, keys = example_32_node () in
  let search = byte_key "10111" in
  let g = Partial_key.Bit in
  (* Offsets of each key versus its predecessor, as in Figure 4. *)
  let expected_offsets = [| 0; 3; 2; 4; 1 |] in
  Array.iteri
    (fun i k ->
      let kb = if i = 0 then base else keys.(i - 1) in
      let pk = Partial_key.encode g ~l_bytes:1 ~base:kb ~key:k in
      Alcotest.(check int) (Printf.sprintf "pkOffset[%d]" i) expected_offsets.(i) pk.Partial_key.pk_off)
    keys;
  let results = ref [] in
  let rel = ref Key.Gt and off = ref 0 in
  let _, d0 = Partial_key.diff g search base in
  off := d0;
  Alcotest.(check int) "d(search, base) = 0" 0 d0;
  Array.iteri
    (fun i k ->
      let kb = if i = 0 then base else keys.(i - 1) in
      (* l = 1 bit *)
      let pk =
        Partial_key.encode g ~l_bytes:1 ~base:kb ~key:k
      in
      let pk = { pk with Partial_key.pk_len = min pk.Partial_key.pk_len 1;
                 pk_bits = (if pk.Partial_key.pk_len = 0 then Bytes.empty
                            else Bytes.make 1 (Char.chr (Char.code (Bytes.get pk.Partial_key.pk_bits 0) land 0x80))) } in
      let c, o = Support.unpack (Pk_compare.compare_partkey g ~search ~pk ~rel:!rel ~off:!off) in
      results := (c, o) :: !results;
      (match c with
      | Key.Gt | Key.Eq ->
          rel := c;
          off := o
      | Key.Lt -> ()))
    keys;
  let got = List.rev !results in
  let expected = [ (Key.Eq, 2); (Key.Eq, 2); (Key.Gt, 3); (Key.Gt, 3); (Key.Lt, 1) ] in
  List.iteri
    (fun i ((gc, go), (ec, eo)) ->
      Alcotest.check Support.cmp_testable (Printf.sprintf "cmp[%d]" i) ec gc;
      Alcotest.(check int) (Printf.sprintf "off[%d]" i) eo go)
    (List.combine got expected)

(* {2 encode/encode_initial edge cases} *)

let test_encode_bit () =
  let base = byte_key "00101" and key = byte_key "10001" in
  let pk = Partial_key.encode Partial_key.Bit ~l_bytes:1 ~base ~key in
  Alcotest.(check int) "offset" 0 pk.Partial_key.pk_off;
  Alcotest.(check int) "len clamped to remaining bits" 7 pk.Partial_key.pk_len;
  (* bits 1..7 of 10001000 = 0001000 -> packed 00010000 *)
  Alcotest.(check string) "bits" "10" (Key.to_hex pk.Partial_key.pk_bits)

let test_encode_byte () =
  let base = Bytes.of_string "abcd" and key = Bytes.of_string "abzz" in
  let pk = Partial_key.encode Partial_key.Byte ~l_bytes:2 ~base ~key in
  Alcotest.(check int) "offset" 2 pk.Partial_key.pk_off;
  Alcotest.(check int) "len" 2 pk.Partial_key.pk_len;
  Alcotest.(check string) "stores the difference byte onward" "zz"
    (Bytes.to_string pk.Partial_key.pk_bits)

let test_encode_byte_clamps_at_end () =
  let base = Bytes.of_string "abc" and key = Bytes.of_string "abd" in
  let pk = Partial_key.encode Partial_key.Byte ~l_bytes:4 ~base ~key in
  Alcotest.(check int) "offset" 2 pk.Partial_key.pk_off;
  Alcotest.(check int) "len clamped" 1 pk.Partial_key.pk_len

let test_encode_equal_rejected () =
  let k = Bytes.of_string "same" in
  Alcotest.check_raises "equal keys" (Invalid_argument "Partial_key.encode: key equals base")
    (fun () -> ignore (Partial_key.encode Partial_key.Byte ~l_bytes:2 ~base:k ~key:k))

let test_encode_initial () =
  let key = Bytes.of_string "\x00\x41\x42" in
  let pk = Partial_key.encode_initial Partial_key.Byte ~l_bytes:2 ~key in
  Alcotest.(check int) "first nonzero byte" 1 pk.Partial_key.pk_off;
  Alcotest.(check string) "value bytes" "AB" (Bytes.to_string pk.Partial_key.pk_bits);
  let zero = Bytes.make 3 '\000' in
  let pk0 = Partial_key.encode_initial Partial_key.Byte ~l_bytes:2 ~key:zero in
  Alcotest.(check int) "all-zero key degenerates" 3 pk0.Partial_key.pk_off;
  Alcotest.(check int) "nothing stored" 0 pk0.Partial_key.pk_len

let test_initial_state () =
  let c, d = Support.unpack (Partial_key.initial_state Partial_key.Byte (Bytes.of_string "\x00\x07")) in
  Alcotest.check Support.cmp_testable "gt" Key.Gt c;
  Alcotest.(check int) "offset" 1 d;
  let c2, d2 = Support.unpack (Partial_key.initial_state Partial_key.Bit (Bytes.of_string "\x00\x07")) in
  Alcotest.check Support.cmp_testable "gt bit" Key.Gt c2;
  Alcotest.(check int) "bit offset" 13 d2;
  let c3, d3 = Support.unpack (Partial_key.initial_state Partial_key.Byte (Bytes.make 2 '\000')) in
  Alcotest.check Support.cmp_testable "all zero is Eq" Key.Eq c3;
  Alcotest.(check int) "agrees everywhere" 2 d3

let test_units_and_prefix () =
  let k = Bytes.of_string "abcd" in
  Alcotest.(check int) "bits" 32 (Partial_key.units_of_key Partial_key.Bit k);
  Alcotest.(check int) "bytes" 4 (Partial_key.units_of_key Partial_key.Byte k);
  Alcotest.(check int) "l bits" 16 (Partial_key.l_units Partial_key.Bit ~l_bytes:2);
  Alcotest.(check int) "l bytes" 2 (Partial_key.l_units Partial_key.Byte ~l_bytes:2);
  let pk = { Partial_key.pk_off = 5; pk_len = 3; pk_bits = Bytes.empty } in
  Alcotest.(check int) "byte prefix" 8 (Partial_key.reconstructed_prefix_units Partial_key.Byte pk);
  Alcotest.(check int) "bit prefix adds implied bit" 9
    (Partial_key.reconstructed_prefix_units Partial_key.Bit pk)

(* {2 resolve_by_offset decision table} *)

let test_resolve_by_offset_table () =
  let resolved c o = Key.pack c o in
  let check name got want = Alcotest.(check int) name want got in
  check "gt, pk earlier flips" (Pk_compare.resolve_by_offset ~rel:Key.Gt ~off:5 ~pk_off:3)
    (resolved Key.Lt 3);
  check "lt, pk earlier flips" (Pk_compare.resolve_by_offset ~rel:Key.Lt ~off:5 ~pk_off:3)
    (resolved Key.Gt 3);
  check "gt, pk later keeps" (Pk_compare.resolve_by_offset ~rel:Key.Gt ~off:2 ~pk_off:7)
    (resolved Key.Gt 2);
  check "lt, pk later keeps" (Pk_compare.resolve_by_offset ~rel:Key.Lt ~off:2 ~pk_off:7)
    (resolved Key.Lt 2);
  check "tie needs units" (Pk_compare.resolve_by_offset ~rel:Key.Gt ~off:4 ~pk_off:4)
    Pk_compare.need_units;
  check "eq, pk earlier is Lt" (Pk_compare.resolve_by_offset ~rel:Key.Eq ~off:6 ~pk_off:2)
    (resolved Key.Lt 2);
  check "eq, pk later unresolved" (Pk_compare.resolve_by_offset ~rel:Key.Eq ~off:3 ~pk_off:8)
    (resolved Key.Eq 3);
  check "eq tie needs units" (Pk_compare.resolve_by_offset ~rel:Key.Eq ~off:3 ~pk_off:3)
    Pk_compare.need_units

let () =
  Alcotest.run "pk_partialkey"
    [
      ( "theorem-3.1",
        [
          Support.seeded_qtest ~count:400 "bit granularity" (prop_theorem Partial_key.Bit);
          Support.seeded_qtest ~count:400 "byte granularity" (prop_theorem Partial_key.Byte);
        ] );
      ( "compare-chain",
        [
          Support.seeded_qtest ~count:300 "bit l=1" (prop_chain Partial_key.Bit ~l_bytes:1);
          Support.seeded_qtest ~count:300 "bit l=2" (prop_chain Partial_key.Bit ~l_bytes:2);
          Support.seeded_qtest ~count:300 "bit l=0 (Bit-Tree mode)"
            (prop_chain Partial_key.Bit ~l_bytes:0);
          Support.seeded_qtest ~count:300 "byte l=1" (prop_chain Partial_key.Byte ~l_bytes:1);
          Support.seeded_qtest ~count:300 "byte l=2" (prop_chain Partial_key.Byte ~l_bytes:2);
          Support.seeded_qtest ~count:300 "byte l=4" (prop_chain Partial_key.Byte ~l_bytes:4);
        ] );
      ( "example-3.2",
        [ Alcotest.test_case "comparison sequence" `Quick test_example_32_sequence ] );
      ( "encode",
        [
          Alcotest.test_case "bit encode" `Quick test_encode_bit;
          Alcotest.test_case "byte encode" `Quick test_encode_byte;
          Alcotest.test_case "byte clamp at key end" `Quick test_encode_byte_clamps_at_end;
          Alcotest.test_case "equal keys rejected" `Quick test_encode_equal_rejected;
          Alcotest.test_case "initial encode" `Quick test_encode_initial;
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "units and prefixes" `Quick test_units_and_prefix;
        ] );
      ( "resolve-by-offset",
        [ Alcotest.test_case "decision table" `Quick test_resolve_by_offset_table ] );
    ]
