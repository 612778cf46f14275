(* Tests for the record store and its cache behaviour. *)

module Mem = Pk_mem.Mem
module Cachesim = Pk_cachesim.Cachesim
module Machine = Pk_cachesim.Machine
module Record_store = Pk_records.Record_store
module Key = Pk_keys.Key

let make () =
  let cache = Cachesim.create (Machine.to_config Machine.ultra30) in
  let mem = Mem.create ~cache () in
  (mem, Record_store.create mem)

let key s = Bytes.of_string s

let test_insert_read () =
  let _, rs = make () in
  let rid = Record_store.insert rs ~key:(key "alpha") ~payload:(key "payload-1") in
  Alcotest.(check bool) "non-null rid" true (rid <> Record_store.null);
  Alcotest.check Support.key_testable "key back" (key "alpha") (Record_store.read_key rs rid);
  Alcotest.(check string) "payload back" "payload-1"
    (Bytes.to_string (Record_store.read_payload rs rid));
  Alcotest.(check int) "key_len" 5 (Record_store.key_len rs rid);
  Alcotest.(check int) "count" 1 (Record_store.count rs)

let test_alignment_to_lines () =
  let _, rs = make () in
  let rids = List.init 20 (fun i -> Record_store.insert rs ~key:(key (Printf.sprintf "key-%02d" i)) ~payload:Bytes.empty) in
  List.iter (fun rid -> Alcotest.(check int) "64-aligned" 0 (rid mod 64)) rids;
  let distinct = List.sort_uniq compare (List.map (fun r -> r / 64) rids) in
  Alcotest.(check int) "each record on its own line" 20 (List.length distinct)

let test_delete_and_reuse () =
  let _, rs = make () in
  let rid = Record_store.insert rs ~key:(key "gone") ~payload:(key "xx") in
  let live = Record_store.live_bytes rs in
  Record_store.delete rs rid;
  Alcotest.(check int) "count drops" 0 (Record_store.count rs);
  Alcotest.(check bool) "live bytes drop" true (Record_store.live_bytes rs < live);
  let rid2 = Record_store.insert rs ~key:(key "gon2") ~payload:(key "xx") in
  Alcotest.(check bool) "storage reused" true (rid2 = rid)

let test_compare_key () =
  let _, rs = make () in
  let rid = Record_store.insert rs ~key:(key "banana") ~payload:Bytes.empty in
  let check name probe exp_c exp_d =
    let c, d = Support.unpack (Record_store.compare_key rs rid (key probe)) in
    Alcotest.check Support.cmp_testable (name ^ " cmp") exp_c c;
    Alcotest.(check int) (name ^ " off") exp_d d
  in
  (* results are stored-vs-probe *)
  check "equal" "banana" Key.Eq 6;
  check "stored greater" "banan!" Key.Gt 5;
  check "stored less" "bananz" Key.Lt 5;
  check "probe prefix" "ban" Key.Gt 3;
  check "stored prefix" "bananas" Key.Lt 6

let test_compare_key_bits () =
  let _, rs = make () in
  (* 'b' = 01100010 *)
  let rid = Record_store.insert rs ~key:(key "b") ~payload:Bytes.empty in
  let c, d = Support.unpack (Record_store.compare_key_bits rs rid (key "c")) in
  (* 'c' = 01100011: differs at bit 7 *)
  Alcotest.check Support.cmp_testable "lt" Key.Lt c;
  Alcotest.(check int) "bit offset" 7 d;
  let c2, d2 = Support.unpack (Record_store.compare_key_bits rs rid (key "b")) in
  Alcotest.check Support.cmp_testable "eq" Key.Eq c2;
  Alcotest.(check int) "bit offset eq" 8 d2

let test_compare_charges_only_examined_prefix () =
  let mem, rs = make () in
  let long_key = Bytes.make 200 'x' in
  Bytes.set long_key 0 'a';
  let rid = Record_store.insert rs ~key:long_key ~payload:Bytes.empty in
  let cache = Option.get (Mem.cache mem) in
  Mem.set_tracing mem true;
  Cachesim.flush cache;
  Cachesim.reset_stats cache;
  (* Probe differing at byte 0: only the first line is touched. *)
  let probe = Bytes.make 200 'x' in
  Bytes.set probe 0 'b';
  ignore (Record_store.compare_key rs rid probe);
  let snap = Cachesim.snapshot cache in
  Alcotest.(check int) "one distinct line" 1 (Cachesim.misses snap ~level:"L2");
  (* Probe equal everywhere: the whole 200-byte key (4 lines) is
     examined. *)
  Cachesim.flush cache;
  Cachesim.reset_stats cache;
  ignore (Record_store.compare_key rs rid long_key);
  let snap2 = Cachesim.snapshot cache in
  Mem.set_tracing mem false;
  Alcotest.(check int) "four distinct lines" 4 (Cachesim.misses snap2 ~level:"L2")

let test_rejects_oversized () =
  let _, rs = make () in
  Alcotest.(check bool) "oversized key rejected" true
    (try
       ignore (Record_store.insert rs ~key:(Bytes.make 70_000 'k') ~payload:Bytes.empty);
       false
     with Invalid_argument _ -> true)

let test_many_records_roundtrip () =
  let _, rs = make () in
  let rng = Pk_util.Prng.create 21L in
  let keys = Pk_keys.Keygen.uniform ~rng ~key_len:12 ~alphabet:220 500 in
  let rids = Array.map (fun k -> Record_store.insert rs ~key:k ~payload:(Bytes.of_string "p")) keys in
  Array.iteri
    (fun i rid ->
      Alcotest.check Support.key_testable "roundtrip" keys.(i) (Record_store.read_key rs rid))
    rids;
  Alcotest.(check int) "count" 500 (Record_store.count rs)

let () =
  Alcotest.run "pk_records"
    [
      ( "record_store",
        [
          Alcotest.test_case "insert/read" `Quick test_insert_read;
          Alcotest.test_case "line alignment" `Quick test_alignment_to_lines;
          Alcotest.test_case "delete and reuse" `Quick test_delete_and_reuse;
          Alcotest.test_case "compare_key" `Quick test_compare_key;
          Alcotest.test_case "compare_key_bits" `Quick test_compare_key_bits;
          Alcotest.test_case "charges examined prefix" `Quick test_compare_charges_only_examined_prefix;
          Alcotest.test_case "oversized rejected" `Quick test_rejects_oversized;
          Alcotest.test_case "500-record roundtrip" `Quick test_many_records_roundtrip;
        ] );
    ]
