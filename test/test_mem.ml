(* Tests for the instrumented memory layer: region addressing, typed
   access round-trips, and exact cache charging. *)

module Mem = Pk_mem.Mem
module Cachesim = Pk_cachesim.Cachesim
module Machine = Pk_cachesim.Machine

let make () =
  let cache = Cachesim.create (Machine.to_config Machine.ultra30) in
  let mem = Mem.create ~cache () in
  (mem, cache)

let test_regions_disjoint () =
  let mem, _ = make () in
  let a = Mem.new_region mem ~name:"a" () in
  let b = Mem.new_region mem ~name:"b" () in
  Alcotest.(check bool) "distinct bases" true (Mem.base a <> Mem.base b);
  Alcotest.(check bool) "very far apart" true (abs (Mem.base a - Mem.base b) >= 1 lsl 40);
  Alcotest.(check string) "names kept" "a" (Mem.region_name a)

let test_typed_roundtrip () =
  let mem, _ = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 64 in
  Mem.write_u8 r off 200;
  Mem.write_u16 r (off + 2) 60000;
  Mem.write_u32 r (off + 4) 123456789;
  Mem.write_u64 r (off + 8) 987654321012345;
  Alcotest.(check int) "u8" 200 (Mem.read_u8 r off);
  Alcotest.(check int) "u16" 60000 (Mem.read_u16 r (off + 2));
  Alcotest.(check int) "u32" 123456789 (Mem.read_u32 r (off + 4));
  Alcotest.(check int) "u64" 987654321012345 (Mem.read_u64 r (off + 8));
  Mem.write_bytes r ~off:(off + 16) ~src:(Bytes.of_string "payload") ~src_off:0 ~len:7;
  Alcotest.(check string) "bytes" "payload" (Bytes.to_string (Mem.read_bytes r ~off:(off + 16) ~len:7))

let test_move_overlap () =
  let mem, _ = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 32 in
  Mem.write_bytes r ~off ~src:(Bytes.of_string "0123456789") ~src_off:0 ~len:10;
  Mem.move r ~src_off:off ~dst_off:(off + 3) ~len:10;
  Alcotest.(check string) "overlapping move" "0120123456789"
    (Bytes.to_string (Mem.read_bytes r ~off ~len:13))

let test_tracing_gate () =
  let mem, cache = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 64 in
  (* Tracing off: nothing charged. *)
  ignore (Mem.read_u64 r off);
  Alcotest.(check int) "untraced" 0 (Cachesim.snapshot cache).Cachesim.total_accesses;
  Mem.set_tracing mem true;
  ignore (Mem.read_u64 r off);
  Alcotest.(check int) "traced" 1 (Cachesim.snapshot cache).Cachesim.total_accesses;
  Mem.set_tracing mem false;
  ignore (Mem.read_u64 r off);
  Alcotest.(check int) "off again" 1 (Cachesim.snapshot cache).Cachesim.total_accesses

let test_with_tracing_restores () =
  let mem, cache = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 8 in
  let result =
    Mem.with_tracing mem true (fun () ->
        ignore (Mem.read_u8 r off);
        "done")
  in
  Alcotest.(check string) "thunk result" "done" result;
  Alcotest.(check bool) "restored off" true (not (Mem.tracing mem));
  Alcotest.(check int) "charged inside" 1 (Cachesim.snapshot cache).Cachesim.total_accesses;
  (* restores even on exception *)
  (try Mem.with_tracing mem true (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (not (Mem.tracing mem))

let test_charging_spans_blocks () =
  let mem, cache = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r ~align:64 256 in
  Mem.set_tracing mem true;
  Cachesim.reset_stats cache;
  (* A 100-byte write from a 64-aligned offset spans exactly 2 blocks. *)
  Mem.write_bytes r ~off ~src:(Bytes.make 100 'x') ~src_off:0 ~len:100;
  Alcotest.(check int) "two blocks" 2 (Cachesim.snapshot cache).Cachesim.total_accesses;
  Mem.set_tracing mem false

let test_same_offsets_different_regions_do_not_conflict () =
  let mem, cache = make () in
  let a = Mem.new_region mem ~name:"a" () in
  let b = Mem.new_region mem ~name:"b" () in
  let oa = Mem.alloc a ~align:64 64 and ob = Mem.alloc b ~align:64 64 in
  Alcotest.(check int) "same offsets" oa ob;
  Mem.set_tracing mem true;
  Cachesim.flush cache;
  Cachesim.reset_stats cache;
  ignore (Mem.read_u8 a oa);
  ignore (Mem.read_u8 b ob);
  ignore (Mem.read_u8 a oa);
  ignore (Mem.read_u8 b ob);
  Mem.set_tracing mem false;
  (* Distinct physical addresses: 2 cold misses then hits — unless the
     direct-mapped cache aliases them (1-TiB strides share set 0!). *)
  let snap = Cachesim.snapshot cache in
  Alcotest.(check int) "four accesses" 4 snap.Cachesim.total_accesses;
  Alcotest.(check bool) "addresses differ" true (Mem.base a + oa <> Mem.base b + ob)

let test_compare_detail_semantics () =
  let mem, _ = make () in
  let r = Mem.new_region mem ~name:"r" () in
  let off = Mem.alloc r 16 in
  Mem.write_bytes r ~off ~src:(Bytes.of_string "banana") ~src_off:0 ~len:6;
  let check name probe plen exp_cmp exp_d =
    let p = Mem.compare_detail r ~off ~len:6 (Bytes.of_string probe) ~key_off:0 ~key_len:plen in
    Alcotest.(check int) (name ^ " cmp sign") exp_cmp (Pk_keys.Key.packed_sign p);
    Alcotest.(check int) (name ^ " diff") exp_d (Pk_keys.Key.packed_off p);
    Alcotest.(check int) (name ^ " sign-only") exp_cmp
      (Mem.compare_sign r ~off ~len:6 (Bytes.of_string probe) ~key_off:0 ~key_len:plen)
  in
  check "equal" "banana" 6 0 6;
  check "region less" "banz" 4 (-1) 3;
  check "region greater" "bam" 3 1 2;
  check "probe prefix" "ban" 3 1 3;
  check "region prefix" "bananas" 7 (-1) 6

let () =
  Alcotest.run "pk_mem"
    [
      ( "mem",
        [
          Alcotest.test_case "regions disjoint" `Quick test_regions_disjoint;
          Alcotest.test_case "typed roundtrip" `Quick test_typed_roundtrip;
          Alcotest.test_case "overlapping move" `Quick test_move_overlap;
          Alcotest.test_case "tracing gate" `Quick test_tracing_gate;
          Alcotest.test_case "with_tracing restores" `Quick test_with_tracing_restores;
          Alcotest.test_case "block-span charging" `Quick test_charging_spans_blocks;
          Alcotest.test_case "region address separation" `Quick test_same_offsets_different_regions_do_not_conflict;
          Alcotest.test_case "compare_detail" `Quick test_compare_detail_semantics;
        ] );
    ]
