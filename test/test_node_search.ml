(* Tests for FINDNODE / FINDBITTREE / naive linear search over
   synthetic in-memory nodes, validated against a sorted-array model. *)

module Key = Pk_keys.Key
module Prng = Pk_util.Prng
module Keygen = Pk_keys.Keygen
module Partial_key = Pk_partialkey.Partial_key
module Pk_compare = Pk_partialkey.Pk_compare
module Node_search = Pk_partialkey.Node_search

let byte_or_zero k i = if i < Bytes.length k then Char.code (Bytes.get k i) else 0

let bit_or_zero k i =
  if i >= 8 * Bytes.length k then 0
  else (Char.code (Bytes.get k (i lsr 3)) lsr (7 - (i land 7))) land 1

(* Truncate a bit-granularity partial key to [tb] stored bits (the
   library parameterises l in bytes; the paper's Example 3.2 uses
   l = 1 bit). *)
let truncate_bits tb (pk : Partial_key.t) =
  let len = min pk.Partial_key.pk_len tb in
  let bits =
    if len = 0 then Bytes.empty
    else begin
      let w = (len + 7) / 8 in
      let b = Bytes.sub pk.Partial_key.pk_bits 0 w in
      let rem = len mod 8 in
      if rem > 0 then
        Bytes.set b (w - 1)
          (Char.chr (Char.code (Bytes.get b (w - 1)) land (0xff lsl (8 - rem) land 0xff)));
      b
    end
  in
  { pk with Partial_key.pk_len = len; pk_bits = bits }

(* entry_ops over plain arrays. [base] is the base key for entry 0. *)
let make_ops ?truncate g ~l_bytes ~base ~keys ~search ~derefs : Node_search.entry_ops =
  let pks =
    Array.mapi
      (fun i k ->
        let pk =
          Partial_key.encode g ~l_bytes ~base:(if i = 0 then base else keys.(i - 1)) ~key:k
        in
        match truncate with Some tb -> truncate_bits tb pk | None -> pk)
      keys
  in
  let ops =
    Node_search.make
      ~pk_off:(fun i -> pks.(i).Partial_key.pk_off)
      ~resolve_units:(fun i ~rel ~off ->
        Pk_compare.resolve_by_units g ~search ~rel ~off ~pk_len:pks.(i).Partial_key.pk_len
          ~pk_bits:pks.(i).Partial_key.pk_bits)
      ~branch_unit:(fun i ->
        match g with
        | Partial_key.Bit -> 1
        | Partial_key.Byte ->
            if pks.(i).Partial_key.pk_len = 0 then -1
            else Char.code (Bytes.get pks.(i).Partial_key.pk_bits 0))
      ~search_unit:(fun u ->
        match g with
        | Partial_key.Bit -> bit_or_zero search u
        | Partial_key.Byte -> byte_or_zero search u)
      ~deref:(fun i ->
        incr derefs;
        let c, d = Partial_key.diff g search keys.(i) in
        Key.pack c d)
  in
  ops.Node_search.num_keys <- Array.length keys;
  ops

(* The search result FINDNODE left in [ops] matches the sorted-array
   model: position, and [off_low] = d(search, key_low) (or d(search,
   base) when low = -1); the result's deref count is the one the ops
   observed. *)
let check_result g ~keys ~base ~search ~derefs (ops : Node_search.entry_ops) =
  let mlow, mhigh = Support.model_position keys search in
  if ops.low <> mlow || ops.high <> mhigh then
    Alcotest.failf "position (%d,%d) != model (%d,%d) for search %s" ops.low ops.high mlow mhigh
      (Key.to_hex search);
  let against = if ops.low = -1 then base else keys.(ops.low) in
  let _, d_true = Partial_key.diff g search against in
  if ops.off_low <> d_true then
    Alcotest.failf "off_low %d != %d (low=%d)" ops.off_low d_true ops.low;
  if ops.derefs <> derefs then Alcotest.failf "derefs %d != %d observed" ops.derefs derefs

let run_both g ~l_bytes ~base ~keys ~search =
  let c0, d0 = Partial_key.diff g search base in
  Alcotest.(check bool) "precondition: search above base" true (c0 = Key.Gt);
  let d1 = ref 0 and d2 = ref 0 in
  let o1 = make_ops g ~l_bytes ~base ~keys ~search ~derefs:d1 in
  Node_search.find_node o1 ~rel0:Key.Gt ~off0:d0;
  let o2 = make_ops g ~l_bytes ~base ~keys ~search ~derefs:d2 in
  Node_search.naive_find_node o2 ~rel0:Key.Gt ~off0:d0;
  check_result g ~keys ~base ~search ~derefs:!d1 o1;
  check_result g ~keys ~base ~search ~derefs:!d2 o2;
  (!d1, !d2)

let prop_positions g ~l_bytes seed =
  let rng = Prng.create (Int64.of_int seed) in
  let len = 2 + Prng.int rng 5 in
  let alphabet = 2 + Prng.int rng 6 in
  let n = 2 + Prng.int rng 16 in
  match Keygen.uniform ~rng ~key_len:len ~alphabet (n + 2) with
  | exception Invalid_argument _ -> true
  | pool ->
      Array.sort Key.compare pool;
      let base = pool.(0) in
      let keys = Array.sub pool 1 (Array.length pool - 2) in
      let search =
        if Prng.bool rng then keys.(Prng.int rng (Array.length keys))
        else pool.(1 + Prng.int rng (Array.length pool - 1))
      in
      ignore (run_both g ~l_bytes ~base ~keys ~search);
      true

(* FINDNODE never needs more dereferences than the naive linear
   search (§3.3's point). *)
let prop_findnode_cheaper g ~l_bytes seed =
  let rng = Prng.create (Int64.of_int seed) in
  match Keygen.uniform ~rng ~key_len:4 ~alphabet:3 18 with
  | exception Invalid_argument _ -> true
  | pool ->
      Array.sort Key.compare pool;
      let base = pool.(0) in
      let keys = Array.sub pool 1 16 in
      let search = pool.(1 + Prng.int rng 17) in
      let d_find, d_naive = run_both g ~l_bytes ~base ~keys ~search in
      d_find <= d_naive

(* Bit-granularity FINDNODE uses at most one dereference (the Bit-Tree
   property exploited by FINDBITTREE). *)
let prop_at_most_one_deref seed =
  let rng = Prng.create (Int64.of_int seed) in
  match Keygen.uniform ~rng ~key_len:4 ~alphabet:2 20 with
  | exception Invalid_argument _ -> true
  | pool ->
      Array.sort Key.compare pool;
      let base = pool.(0) in
      let keys = Array.sub pool 1 18 in
      let search = pool.(1 + Prng.int rng 19) in
      let d, _ = run_both Partial_key.Bit ~l_bytes:0 ~base ~keys ~search in
      d <= 1

let byte_key bits =
  let k = Bytes.make 1 '\000' in
  String.iteri
    (fun i c -> if c = '1' then Bytes.set k 0 (Char.chr (Char.code (Bytes.get k 0) lor (0x80 lsr i))))
    bits;
  k

(* Example 3.2: FINDNODE locates the search key with zero
   dereferences. *)
let test_example_32_findnode () =
  let base = byte_key "00101" in
  let keys = Array.map byte_key [| "10001"; "10010"; "10100"; "10101"; "11000" |] in
  let search = byte_key "10111" in
  let derefs = ref 0 in
  let ops = make_ops ~truncate:1 Partial_key.Bit ~l_bytes:1 ~base ~keys ~search ~derefs in
  let pk_off = ops.Node_search.pk_off in
  Alcotest.(check (list int)) "offsets as in Figure 4" [ 0; 3; 2; 4; 1 ]
    (List.init 5 pk_off);
  Node_search.find_node ops ~rel0:Key.Gt ~off0:0;
  Alcotest.(check int) "low" 3 ops.Node_search.low;
  Alcotest.(check int) "high" 4 ops.Node_search.high;
  Alcotest.(check int) "no dereference" 0 !derefs

(* The naive linear search on the same node needs exactly one
   dereference (of key 0), as the paper notes. *)
let test_example_32_naive () =
  let base = byte_key "00101" in
  let keys = Array.map byte_key [| "10001"; "10010"; "10100"; "10101"; "11000" |] in
  let search = byte_key "10111" in
  let derefs = ref 0 in
  let ops = make_ops ~truncate:1 Partial_key.Bit ~l_bytes:1 ~base ~keys ~search ~derefs in
  Node_search.naive_find_node ops ~rel0:Key.Gt ~off0:0;
  Alcotest.(check int) "low" 3 ops.Node_search.low;
  Alcotest.(check int) "high" 4 ops.Node_search.high;
  Alcotest.(check int) "exactly one dereference" 1 !derefs

let test_empty_node () =
  let derefs = ref 0 in
  let ops =
    make_ops Partial_key.Byte ~l_bytes:2 ~base:(Bytes.of_string "a") ~keys:[||]
      ~search:(Bytes.of_string "b") ~derefs
  in
  Node_search.find_node ops ~rel0:Key.Gt ~off0:0;
  Alcotest.(check int) "low" (-1) ops.Node_search.low;
  Alcotest.(check int) "high" 0 ops.Node_search.high

let test_exact_match_found_as_low_eq_high () =
  let base = Bytes.of_string "aa" in
  let keys = Array.map Bytes.of_string [| "ab"; "ac"; "ba"; "bc" |] in
  Array.iteri
    (fun i k ->
      let derefs = ref 0 in
      let ops = make_ops Partial_key.Byte ~l_bytes:1 ~base ~keys ~search:k ~derefs in
      let c0, d0 = Partial_key.diff Partial_key.Byte k base in
      Alcotest.(check bool) "above base" true (c0 = Key.Gt);
      Node_search.find_node ops ~rel0:Key.Gt ~off0:d0;
      Alcotest.(check int) (Printf.sprintf "low=%d" i) i ops.Node_search.low;
      Alcotest.(check int) (Printf.sprintf "high=%d" i) i ops.Node_search.high)
    keys

let test_search_below_all () =
  let base = Bytes.of_string "b" in
  let keys = Array.map Bytes.of_string [| "d"; "e"; "f" |] in
  let search = Bytes.of_string "c" in
  let derefs = ref 0 in
  let ops = make_ops Partial_key.Byte ~l_bytes:1 ~base ~keys ~search ~derefs in
  Node_search.find_node ops ~rel0:Key.Gt ~off0:0;
  Alcotest.(check int) "low" (-1) ops.Node_search.low;
  Alcotest.(check int) "high" 0 ops.Node_search.high;
  Alcotest.(check int) "off_low unchanged" 0 ops.Node_search.off_low

let test_search_above_all () =
  let base = Bytes.of_string "b" in
  let keys = Array.map Bytes.of_string [| "d"; "e"; "f" |] in
  let search = Bytes.of_string "z" in
  let derefs = ref 0 in
  let ops = make_ops Partial_key.Byte ~l_bytes:1 ~base ~keys ~search ~derefs in
  Node_search.find_node ops ~rel0:Key.Gt ~off0:0;
  Alcotest.(check int) "low" 2 ops.Node_search.low;
  Alcotest.(check int) "high" 3 ops.Node_search.high

(* The packed (cmp, offset) results at their extremes: byte offset
   0xffff (the largest a u16 [pk_off] field stores) and the bit offsets
   of a 0xffff-byte key (its last bit, and 8 * 0xffff for equal keys),
   round-tripped and carried through whole FINDNODE searches. *)
let test_packed_extremes () =
  let last_bit = (8 * 0xffff) - 1 in
  List.iter
    (fun off ->
      List.iter
        (fun c ->
          let p = Key.pack c off in
          Alcotest.check Support.cmp_testable "cmp" c (Key.packed_cmp p);
          Alcotest.(check int) "off" off (Key.packed_off p);
          Alcotest.(check int) "sign" (Key.int_of_cmp c) (Key.packed_sign p);
          Alcotest.(check int) "pack_sign" p (Key.pack_sign (Key.int_of_cmp c) off);
          Alcotest.(check int) "flip" (Key.pack (Key.flip c) off) (Key.packed_flip p))
        [ Key.Lt; Key.Eq; Key.Gt ])
    [ 0; 0xffff; last_bit; 8 * 0xffff ];
  (* A [len]-byte key of 0x01 bytes ending in the byte [v]. *)
  let key len v =
    let k = Bytes.make len '\x01' in
    Bytes.set k (len - 1) (Char.chr v);
    k
  in
  (* Byte granularity: every key differs from its base at byte 0xffff. *)
  let base = key 0x10000 1 and keys = Array.map (key 0x10000) [| 3; 5; 7 |] in
  let _, d = Partial_key.diff Partial_key.Byte keys.(0) base in
  Alcotest.(check int) "byte pk_off" 0xffff d;
  List.iter
    (fun v -> ignore (run_both Partial_key.Byte ~l_bytes:2 ~base ~keys ~search:(key 0x10000 v)))
    [ 2; 3; 6; 7; 9 ];
  (* Bit granularity over 0xffff-byte keys: 0x02 -> 0x03 and
     0x04 -> 0x05 differ at the key's last bit. *)
  let base = key 0xffff 2 and keys = Array.map (key 0xffff) [| 3; 4; 5 |] in
  let _, d = Partial_key.diff Partial_key.Bit keys.(0) base in
  Alcotest.(check int) "bit pk_off" last_bit d;
  List.iter
    (fun v ->
      ignore (run_both Partial_key.Bit ~l_bytes:1 ~base ~keys ~search:(key 0xffff v));
      ignore (run_both Partial_key.Bit ~l_bytes:0 ~base ~keys ~search:(key 0xffff v)))
    [ 3; 4; 5; 6 ]

let () =
  Alcotest.run "pk_node_search"
    [
      ( "model-equivalence",
        [
          Support.seeded_qtest ~count:500 "bit l=0" (prop_positions Partial_key.Bit ~l_bytes:0);
          Support.seeded_qtest ~count:500 "bit l=1" (prop_positions Partial_key.Bit ~l_bytes:1);
          Support.seeded_qtest ~count:500 "bit l=2" (prop_positions Partial_key.Bit ~l_bytes:2);
          Support.seeded_qtest ~count:500 "byte l=0" (prop_positions Partial_key.Byte ~l_bytes:0);
          Support.seeded_qtest ~count:500 "byte l=1" (prop_positions Partial_key.Byte ~l_bytes:1);
          Support.seeded_qtest ~count:500 "byte l=2" (prop_positions Partial_key.Byte ~l_bytes:2);
          Support.seeded_qtest ~count:500 "byte l=4" (prop_positions Partial_key.Byte ~l_bytes:4);
        ] );
      ( "deref-economy",
        [
          Support.seeded_qtest ~count:300 "findnode <= naive (byte l=2)"
            (prop_findnode_cheaper Partial_key.Byte ~l_bytes:2);
          Support.seeded_qtest ~count:300 "findnode <= naive (bit l=1)"
            (prop_findnode_cheaper Partial_key.Bit ~l_bytes:1);
          Support.seeded_qtest ~count:500 "bit granularity: at most one deref"
            prop_at_most_one_deref;
        ] );
      ( "example-3.2",
        [
          Alcotest.test_case "FINDNODE zero derefs" `Quick test_example_32_findnode;
          Alcotest.test_case "naive exactly one deref" `Quick test_example_32_naive;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty node" `Quick test_empty_node;
          Alcotest.test_case "exact matches" `Quick test_exact_match_found_as_low_eq_high;
          Alcotest.test_case "below all" `Quick test_search_below_all;
          Alcotest.test_case "above all" `Quick test_search_above_all;
          Alcotest.test_case "packed offsets at their extremes" `Quick test_packed_extremes;
        ] );
    ]
