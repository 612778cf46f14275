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

(* {2 Word-wise scans}

   [compare_detail] and [compare_sign] skip equal 8-byte words before
   their byte loop.  Each is checked against a byte-by-byte reference
   over keys of 0-40 bytes at unaligned offsets (equal keys, each
   proper prefix either way round, a first difference at every
   position), through a live region and through a snapshot view whose
   live bytes were overwritten after the pin.
   Charge parity: a twin memory system, fed only [Mem.touch] of the
   examined prefix, must end with the identical simulator state. *)

let ref_compare a b =
  let la = Bytes.length a and lb = Bytes.length b in
  let common = Stdlib.min la lb in
  let rec go i =
    if i >= common then (common lsl 2) lor if la = lb then 1 else if la < lb then 0 else 2
    else
      let x = Char.code (Bytes.get a i) and y = Char.code (Bytes.get b i) in
      if x <> y then (i lsl 2) lor if x < y then 0 else 2 else go (i + 1)
  in
  go 0

let word_cases () =
  let rng = Pk_util.Prng.create 7L in
  let cases = ref [] in
  for len = 0 to 40 do
    let a = Bytes.init len (fun _ -> Char.chr (Pk_util.Prng.int rng 256)) in
    cases := (a, Bytes.copy a) :: !cases;
    for k = 0 to len - 1 do
      cases := (a, Bytes.sub a 0 k) :: (Bytes.sub a 0 k, a) :: !cases
    done;
    for p = 0 to len - 1 do
      let b = Bytes.copy a in
      Bytes.set b p (Char.chr ((Char.code (Bytes.get a p) + 1 + Pk_util.Prng.int rng 255) land 0xff));
      cases := (a, b) :: (b, a) :: !cases
    done
  done;
  List.rev !cases

(* A memory system and its twin: same geometry, same region bases, one
   256-byte block at the same offset. *)
let twin_env () =
  let mk () =
    let mem, cache = make () in
    let r = Mem.new_region mem ~name:"r" () in
    (mem, cache, r, Mem.alloc r ~align:64 256)
  in
  let (mem, cache, r, blk) = mk () and (mem', cache', r', blk') = mk () in
  Alcotest.(check int) "twin blocks line up" blk blk';
  (mem, cache, r, mem', cache', r', blk)

let test_word_scans () =
  let mem, cache, r, mem', cache', r', blk = twin_env () in
  let check_case ~view ~ao ~bo ~kb (a, b) =
    let la = Bytes.length a and lb = Bytes.length b in
    (* The key straddles a 64-byte boundary, so a charge that is off
       by a byte shows up as a block touched or not. *)
    let off = blk + 40 + ao in
    let probe = Bytes.make (kb + lb) '\xa5' in
    Bytes.blit b 0 probe kb lb;
    Mem.write_bytes r ~off ~src:a ~src_off:0 ~len:la;
    let rd =
      if not view then r
      else begin
        let v = Mem.snapshot_view r in
        (* The view must read the pinned bytes, not these: live, the
           region now holds [b], so a word read of live bytes would
           skip words of the pinned ones that differ. *)
        Mem.write_bytes r ~off ~src:b ~src_off:0 ~len:lb;
        v
      end
    in
    let want = ref_compare a b in
    let common = Stdlib.min la lb in
    let examined = Stdlib.min ((want lsr 2) + 1) common in
    let name what =
      Printf.sprintf "%s %s a=%S b=%S ao=%d bo=%d kb=%d" what
        (if view then "view" else "live")
        (Bytes.to_string a) (Bytes.to_string b) ao bo kb
    in
    let parity what ~touch f =
      Mem.set_tracing mem true;
      Mem.set_tracing mem' true;
      let got = f () in
      if examined > 0 then touch ();
      Mem.set_tracing mem false;
      Mem.set_tracing mem' false;
      if Cachesim.snapshot cache <> Cachesim.snapshot cache' then
        Alcotest.failf "%s: charge differs from a touch of the %d examined bytes" (name what)
          examined;
      got
    in
    let touch1 () = Mem.touch r' ~off ~len:examined in
    let got = parity "compare_detail" ~touch:touch1 (fun () ->
        Mem.compare_detail rd ~off ~len:la probe ~key_off:kb ~key_len:lb)
    in
    if got <> want then Alcotest.failf "%s: packed %d, want %d" (name "compare_detail") got want;
    let got = parity "compare_sign" ~touch:touch1 (fun () ->
        Mem.compare_sign rd ~off ~len:la probe ~key_off:kb ~key_len:lb)
    in
    if got <> (want land 3) - 1 then
      Alcotest.failf "%s: sign %d, want %d" (name "compare_sign") got ((want land 3) - 1);
    if view then Mem.release_view rd
  in
  let cases = word_cases () in
  List.iter
    (fun (ao, bo, kb) ->
      List.iter (check_case ~view:false ~ao ~bo ~kb) cases)
    [ (0, 0, 0); (3, 5, 1); (7, 2, 6) ];
  List.iter (check_case ~view:true ~ao:5 ~bo:3 ~kb:7) cases

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
          Alcotest.test_case "word scans match a byte reference" `Quick test_word_scans;
        ] );
    ]
