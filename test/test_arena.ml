(* Unit tests for the byte arena. *)

module Arena = Pk_arena.Arena

let make () = Arena.create ~name:"test" ~initial_capacity:128 ()

let test_null_reserved () =
  let a = make () in
  let off = Arena.alloc a 16 in
  Alcotest.(check bool) "never returns null" true (off <> Arena.null);
  Alcotest.(check bool) "null is zero" true (Arena.null = 0)

let test_alignment () =
  let a = make () in
  ignore (Arena.alloc a 3);
  let off8 = Arena.alloc a ~align:8 10 in
  Alcotest.(check int) "8-aligned" 0 (off8 mod 8);
  let off64 = Arena.alloc a ~align:64 7 in
  Alcotest.(check int) "64-aligned" 0 (off64 mod 64)

let test_growth () =
  let a = make () in
  let off = Arena.alloc a 100_000 in
  Arena.set_u8 a (off + 99_999) 0xAB;
  Alcotest.(check int) "read back across growth" 0xAB (Arena.get_u8 a (off + 99_999));
  Alcotest.(check bool) "capacity grew" true (Arena.capacity a >= 100_000)

let test_growth_preserves_data () =
  let a = make () in
  let off = Arena.alloc a 64 in
  Arena.set_u64 a off 0x1122334455667788;
  ignore (Arena.alloc a 1_000_000);
  Alcotest.(check int) "data preserved" 0x1122334455667788 (Arena.get_u64 a off)

let test_typed_accessors () =
  let a = make () in
  let off = Arena.alloc a 32 in
  Arena.set_u8 a off 0x7F;
  Arena.set_u16 a (off + 2) 0xBEEF;
  Arena.set_u32 a (off + 4) 0xDEADBEEF;
  Arena.set_u64 a (off + 8) max_int;
  Alcotest.(check int) "u8" 0x7F (Arena.get_u8 a off);
  Alcotest.(check int) "u16" 0xBEEF (Arena.get_u16 a (off + 2));
  Alcotest.(check int) "u32" 0xDEADBEEF (Arena.get_u32 a (off + 4));
  Alcotest.(check int) "u64" max_int (Arena.get_u64 a (off + 8))

let test_u8_u16_masking () =
  let a = make () in
  let off = Arena.alloc a 8 in
  Arena.set_u8 a off 0x1FF;
  Alcotest.(check int) "u8 masked" 0xFF (Arena.get_u8 a off);
  Arena.set_u16 a (off + 2) 0x1FFFF;
  Alcotest.(check int) "u16 masked" 0xFFFF (Arena.get_u16 a (off + 2))

let test_free_reuse () =
  let a = make () in
  let o1 = Arena.alloc a 48 in
  Arena.set_u64 a o1 99;
  Arena.free a o1 48;
  let o2 = Arena.alloc a 48 in
  Alcotest.(check int) "same-size free list reuses" o1 o2;
  Alcotest.(check int) "freed region zeroed" 0 (Arena.get_u64 a o2);
  let o3 = Arena.alloc a 24 in
  Alcotest.(check bool) "different size not reused" true (o3 <> o1)

(* Placement-hinted allocation: a reservation stays honest across
   region growth, and [alloc_at] carves it without double-charging. *)
let test_reserve_alignment_across_growth () =
  let a = make () in
  ignore (Arena.alloc a 24);
  (* The 128-byte initial capacity forces a growth inside [reserve]. *)
  let base = Arena.reserve a ~align:4096 100_000 in
  Alcotest.(check int) "4096-aligned" 0 (base mod 4096);
  Arena.set_u8 a (base + 99_999) 0xCD;
  Alcotest.(check int) "usable to the last byte" 0xCD (Arena.get_u8 a (base + 99_999));
  let live = Arena.live_bytes a in
  let o1 = Arena.alloc_at a ~off:base 192 in
  let o2 = Arena.alloc_at a ~off:(base + 192) 192 in
  Alcotest.(check int) "alloc_at returns the offset" base o1;
  Alcotest.(check int) "second carve" (base + 192) o2;
  Alcotest.(check int) "carving a reservation charges nothing" live (Arena.live_bytes a);
  Alcotest.check_raises "beyond the frontier"
    (Invalid_argument "Arena.alloc_at: region beyond the allocation frontier") (fun () ->
      ignore (Arena.alloc_at a ~off:(Arena.used_bytes a) 192))

(* Hugepage-aware reservation: [?huge] aligns the base to the
   huge-block size and rounds the extent up to it, so a blocked
   placement's huge blocks never straddle a (simulated) hugepage
   boundary. *)
let test_reserve_hugepage () =
  let a = make () in
  ignore (Arena.alloc a 24);
  let huge = 2 * 1024 * 1024 in
  let base = Arena.reserve a ~align:8192 ~huge 100_000 in
  Alcotest.(check int) "huge-aligned base" 0 (base mod huge);
  (* the extent is rounded up to a whole huge block *)
  Alcotest.(check int) "extent rounded to the block" (base + huge) (Arena.used_bytes a);
  Arena.set_u8 a (base + huge - 1) 0x5A;
  Alcotest.(check int) "usable to the rounded end" 0x5A (Arena.get_u8 a (base + huge - 1));
  (* a finer [align] never weakens the huge alignment *)
  let b2 = Arena.reserve a ~align:64 ~huge:4096 5000 in
  Alcotest.(check int) "page-aligned base" 0 (b2 mod 4096);
  Alcotest.(check int) "page-rounded extent" (b2 + 8192) (Arena.used_bytes a);
  Alcotest.check_raises "huge must be a power of two"
    (Invalid_argument "Arena.reserve: huge must be a positive power of two") (fun () ->
      ignore (Arena.reserve a ~huge:3000 64))

let test_alloc_at_vs_freed_regions () =
  let a = make () in
  let o1 = Arena.alloc a 192 in
  let o2 = Arena.alloc a 192 in
  Arena.set_u64 a o1 77;
  Arena.free a o1 192;
  (* Reclaiming an exactly-matching freed block takes it off the free
     list, so a later same-size alloc must not hand it out again. *)
  let r = Arena.alloc_at a ~off:o1 192 in
  Alcotest.(check int) "freed block reclaimed in place" o1 r;
  Alcotest.(check int) "reclaimed block zeroed" 0 (Arena.get_u64 a r);
  let o3 = Arena.alloc a 192 in
  Alcotest.(check bool) "free list no longer offers it" true (o3 <> o1);
  (* Size-mismatched reclaim would corrupt the free accounting. *)
  Arena.free a o2 192;
  Alcotest.check_raises "size mismatch"
    (Invalid_argument
       (Printf.sprintf "Arena.alloc_at: offset %d freed with size 192, requested 64" o2))
    (fun () -> ignore (Arena.alloc_at a ~off:o2 64))

let test_reserve_txn_abort () =
  let a = make () in
  Arena.begin_txn a;
  let base = Arena.reserve a ~align:64 4096 in
  ignore (Arena.alloc_at a ~off:base 192);
  Arena.set_u64 a base 123456;
  Arena.abort_txn a;
  (* The alignment gap below [base] is burned, as with any aligned
     alloc; the reservation itself must come back in full. *)
  Alcotest.(check int) "abort returns the whole reservation" base (Arena.live_bytes a);
  let back = Arena.alloc a 4096 in
  Alcotest.(check int) "returned via the free list in one piece" base back;
  (* A freed-in-txn block must not be reclaimable by alloc_at until
     the free actually lands at commit. *)
  let o = Arena.alloc a 192 in
  Arena.begin_txn a;
  Arena.free a o 192;
  Alcotest.check_raises "pending free blocks reclaim"
    (Invalid_argument "Arena.alloc_at: offset freed in the open transaction") (fun () ->
      ignore (Arena.alloc_at a ~off:o 192));
  Arena.commit_txn a

let test_live_bytes_accounting () =
  let a = make () in
  let base = Arena.live_bytes a in
  let o = Arena.alloc a 100 in
  Alcotest.(check int) "alloc adds" (base + 100) (Arena.live_bytes a);
  Arena.free a o 100;
  Alcotest.(check int) "free subtracts" base (Arena.live_bytes a);
  ignore (Arena.alloc a 100);
  Alcotest.(check int) "reuse adds back" (base + 100) (Arena.live_bytes a)

let test_blits_and_compare () =
  let a = make () in
  let off = Arena.alloc a 32 in
  let src = Bytes.of_string "hello world" in
  Arena.blit_from_bytes a ~src ~src_off:0 ~dst_off:off ~len:11;
  let dst = Bytes.make 11 ' ' in
  Arena.blit_to_bytes a ~src_off:off ~dst ~dst_off:0 ~len:11;
  Alcotest.(check string) "round trip" "hello world" (Bytes.to_string dst);
  (* Word equality: whole equal 8-byte words, stopping at the first
     unequal word or when fewer than 8 bytes remain. *)
  Alcotest.(check int) "equal words, 3-byte tail left over" 8
    (Arena.equal_words a ~off (Bytes.of_string "hello world") ~b_off:0 ~len:11);
  Alcotest.(check int) "equal words ignore bytes past len" 8
    (Arena.equal_words a ~off (Bytes.of_string "hello worlds") ~b_off:0 ~len:11);
  Alcotest.(check int) "unequal first word" 0
    (Arena.equal_words a ~off (Bytes.of_string "hellp world") ~b_off:0 ~len:11);
  Alcotest.(check int) "unaligned probe offset" 8
    (Arena.equal_words a ~off (Bytes.of_string "__hello world") ~b_off:2 ~len:11);
  Alcotest.(check int) "out of bounds skips nothing" 0
    (Arena.equal_words a ~off (Bytes.of_string "hello") ~b_off:0 ~len:11)

let test_blit_within_overlap () =
  let a = make () in
  let off = Arena.alloc a 16 in
  Arena.blit_from_bytes a ~src:(Bytes.of_string "abcdef") ~src_off:0 ~dst_off:off ~len:6;
  Arena.blit_within a ~src_off:off ~dst_off:(off + 2) ~len:6;
  Alcotest.(check string) "overlapping move"
    "ababcdef"
    (Bytes.to_string (Arena.sub_bytes a ~off ~len:8))

let test_invalid_args () =
  let a = make () in
  Alcotest.check_raises "size 0" (Invalid_argument "Arena.alloc: size <= 0") (fun () ->
      ignore (Arena.alloc a 0));
  Alcotest.check_raises "bad align"
    (Invalid_argument "Arena.alloc: align must be a positive power of two") (fun () ->
      ignore (Arena.alloc a ~align:3 8));
  Alcotest.check_raises "free null" (Invalid_argument "Arena.free: null") (fun () ->
      Arena.free a 0 8)

let test_double_free () =
  let a = make () in
  let o1 = Arena.alloc a 32 in
  let o2 = Arena.alloc a 32 in
  Arena.free a o1 32;
  Alcotest.check_raises "double free rejected"
    (Invalid_argument (Printf.sprintf "Arena.free: double free of offset %d" o1)) (fun () ->
      Arena.free a o1 32);
  (* a re-allocation of the region makes it freeable again *)
  let o3 = Arena.alloc a 32 in
  Alcotest.(check int) "free list reused" o1 o3;
  Arena.free a o3 32;
  Arena.free a o2 32;
  Alcotest.check_raises "tracked per offset"
    (Invalid_argument (Printf.sprintf "Arena.free: double free of offset %d" o2)) (fun () ->
      Arena.free a o2 32)

let test_txn_abort_restores_bytes () =
  let a = make () in
  let off = Arena.alloc a 32 in
  Arena.set_u64 a off 0xAAAA;
  Arena.set_u64 a (off + 8) 0xBBBB;
  Arena.begin_txn a;
  Alcotest.(check bool) "in_txn" true (Arena.in_txn a);
  Arena.set_u64 a off 0x1111;
  Arena.blit_from_bytes a ~src:(Bytes.make 8 'x') ~src_off:0 ~dst_off:(off + 8) ~len:8;
  Arena.fill a ~off:(off + 16) ~len:8 '\xff';
  Arena.abort_txn a;
  Alcotest.(check bool) "txn closed" false (Arena.in_txn a);
  Alcotest.(check int) "u64 restored" 0xAAAA (Arena.get_u64 a off);
  Alcotest.(check int) "blit undone" 0xBBBB (Arena.get_u64 a (off + 8));
  Alcotest.(check int) "fill undone" 0 (Arena.get_u64 a (off + 16))

let test_txn_abort_returns_allocations () =
  let a = make () in
  ignore (Arena.alloc a 16);
  Arena.begin_txn a;
  let o1 = Arena.alloc a 48 in
  Arena.set_u64 a o1 123;
  Arena.abort_txn a;
  (* the aborted allocation went back on the free list: the same
     request finds the same region, zeroed *)
  let o2 = Arena.alloc a 48 in
  Alcotest.(check int) "region recycled" o1 o2;
  Alcotest.(check int) "contents zeroed by undo" 0 (Arena.get_u64 a o2)

let test_txn_frees_deferred () =
  let a = make () in
  let o1 = Arena.alloc a 48 in
  Arena.set_u64 a o1 7;
  (* Abort: the free is undone along with everything else. *)
  Arena.begin_txn a;
  Arena.free a o1 48;
  Alcotest.check_raises "double free caught inside txn"
    (Invalid_argument (Printf.sprintf "Arena.free: double free of offset %d" o1)) (fun () ->
      Arena.free a o1 48);
  Arena.abort_txn a;
  Alcotest.(check int) "freed bytes restored on abort" 7 (Arena.get_u64 a o1);
  let o2 = Arena.alloc a 48 in
  Alcotest.(check bool) "region still live after abort" true (o2 <> o1);
  (* Commit: only now does the region reach the free list. *)
  Arena.begin_txn a;
  Arena.free a o1 48;
  let held = Arena.alloc a 48 in
  Alcotest.(check bool) "free not visible before commit" true (held <> o1);
  Arena.commit_txn a;
  let o3 = Arena.alloc a 48 in
  Alcotest.(check int) "free applied at commit" o1 o3

let test_txn_nesting_rejected () =
  let a = make () in
  Arena.begin_txn a;
  Alcotest.check_raises "no nesting"
    (Invalid_argument "Arena.begin_txn: transaction already open") (fun () ->
      Arena.begin_txn a);
  Arena.commit_txn a;
  Alcotest.check_raises "commit without txn"
    (Invalid_argument "Arena.commit_txn: no open transaction") (fun () -> Arena.commit_txn a)

(* {2 Abort contract, byte for byte}

   The undo log records only what an abort needs: bytes below the bump
   frontier of [begin_txn] are logged before they are overwritten,
   bytes at or above it were zero then and are re-zeroed wholesale. *)

let image a = Arena.sub_bytes a ~off:0 ~len:(Arena.used_bytes a)

(* Everything below the old frontier reads back as it was, everything
   from there to the current frontier reads zero. *)
let check_unwound a before =
  let n = Bytes.length before in
  Alcotest.(check string) "bytes below the frontier restored" (Bytes.to_string before)
    (Bytes.to_string (Arena.sub_bytes a ~off:0 ~len:n));
  let fresh = Arena.used_bytes a - n in
  Alcotest.(check string) "bytes above the frontier zeroed" (String.make fresh '\000')
    (Bytes.to_string (Arena.sub_bytes a ~off:n ~len:fresh))

let test_abort_fresh_zeroed () =
  let a = make () in
  let o0 = Arena.alloc a 16 in
  Arena.set_u64 a o0 0x0102030405060708;
  let before = image a in
  Arena.begin_txn a;
  let o = Arena.alloc a 64 in
  Arena.blit_from_bytes a ~src:(Bytes.make 64 'z') ~src_off:0 ~dst_off:o ~len:64;
  Arena.set_u16 a (o + 3) 0xffff;
  Arena.abort_txn a;
  check_unwound a before;
  Alcotest.(check int) "fresh block reused" o (Arena.alloc a 64)

let test_abort_straddling_store () =
  let a = make () in
  let o1 = Arena.alloc a 16 in
  Arena.blit_from_bytes a ~src:(Bytes.of_string "ABCDEFGHIJKLMNOP") ~src_off:0 ~dst_off:o1 ~len:16;
  let before = image a in
  Alcotest.(check int) "frontier right after the block" (o1 + 16) (Arena.used_bytes a);
  Arena.begin_txn a;
  let o2 = Arena.alloc a 16 in
  Alcotest.(check int) "fresh block right after the frontier" (o1 + 16) o2;
  (* 8 bytes below the frontier, 8 above. *)
  Arena.blit_from_bytes a ~src:(Bytes.make 16 '#') ~src_off:0 ~dst_off:(o1 + 8) ~len:16;
  Arena.set_u64 a o1 (-1);
  Arena.abort_txn a;
  check_unwound a before

let test_abort_recycled_block () =
  let a = make () in
  let o = Arena.alloc a 48 in
  ignore (Arena.alloc a 16);
  Arena.fill a ~off:o ~len:48 'q';
  Arena.free a o 48;
  let before = image a in
  Arena.begin_txn a;
  let r = Arena.alloc a 48 in
  Alcotest.(check int) "free-list block recycled below the frontier" o r;
  Arena.fill a ~off:r ~len:48 'w';
  Arena.abort_txn a;
  check_unwound a before;
  Alcotest.(check int) "back on the free list" o (Arena.alloc a 48)

let test_abort_after_large_txn () =
  let a = make () in
  let big = 256 * 1024 in
  let o = Arena.alloc a big in
  Arena.fill a ~off:o ~len:big 'a';
  (* A transaction that logs far more than the log keeps afterwards. *)
  Arena.begin_txn a;
  Arena.fill a ~off:o ~len:big 'b';
  Arena.commit_txn a;
  let before = image a in
  Arena.begin_txn a;
  Arena.fill a ~off:o ~len:big 'c';
  Arena.abort_txn a;
  check_unwound a before;
  (* ... and a small one after that unwinds exactly too. *)
  Arena.begin_txn a;
  Arena.set_u32 a (o + 5) 0xdeadbeef;
  Arena.blit_within a ~src_off:o ~dst_off:(o + 3) ~len:100;
  let f = Arena.alloc a 32 in
  Arena.set_u64 a f 42;
  Arena.abort_txn a;
  check_unwound a before

let test_abort_keeps_shadow () =
  let a = make () in
  let o = Arena.alloc a 32 in
  Arena.blit_from_bytes a ~src:(Bytes.of_string "0123456789abcdef") ~src_off:0 ~dst_off:o ~len:16;
  let before = image a in
  let s = Arena.shadow_attach a in
  Arena.begin_txn a;
  Arena.fill a ~off:o ~len:32 'x';
  let f = Arena.alloc a 512 in
  Arena.fill a ~off:f ~len:512 'y';
  Arena.abort_txn a;
  check_unwound a before;
  let n = Arena.used_bytes a in
  let seen = Bytes.create n in
  Arena.shadow_blit_to_bytes a s ~src_off:0 ~dst:seen ~dst_off:0 ~len:n;
  Alcotest.(check string) "shadow reads pre-images"
    (Bytes.to_string before ^ String.make (n - Bytes.length before) '\000')
    (Bytes.to_string seen);
  Arena.shadow_detach a s

let test_double_free_many_pending () =
  let a = make () in
  let n = 10_000 in
  let blocks = Array.init (n + 1) (fun _ -> Arena.alloc a 16) in
  Arena.begin_txn a;
  for i = 0 to n - 1 do
    Arena.free a blocks.(i) 16
  done;
  Alcotest.check_raises "double free caught among pending frees"
    (Invalid_argument (Printf.sprintf "Arena.free: double free of offset %d" blocks.(0)))
    (fun () -> Arena.free a blocks.(0) 16);
  Alcotest.check_raises "pending free blocks reclaim"
    (Invalid_argument "Arena.alloc_at: offset freed in the open transaction") (fun () ->
      ignore (Arena.alloc_at a ~off:blocks.(n - 1) 16));
  Arena.free a blocks.(n) 16;
  Arena.commit_txn a;
  Alcotest.(check int) "every pending free landed" 8 (Arena.live_bytes a)

let () =
  Alcotest.run "pk_arena"
    [
      ( "arena",
        [
          Alcotest.test_case "null reserved" `Quick test_null_reserved;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "growth preserves data" `Quick test_growth_preserves_data;
          Alcotest.test_case "typed accessors" `Quick test_typed_accessors;
          Alcotest.test_case "u8/u16 masking" `Quick test_u8_u16_masking;
          Alcotest.test_case "free-list reuse" `Quick test_free_reuse;
          Alcotest.test_case "hugepage-aware reserve" `Quick test_reserve_hugepage;
          Alcotest.test_case "reserve alignment across growth" `Quick
            test_reserve_alignment_across_growth;
          Alcotest.test_case "alloc_at vs freed regions" `Quick test_alloc_at_vs_freed_regions;
          Alcotest.test_case "reserve under txn abort" `Quick test_reserve_txn_abort;
          Alcotest.test_case "live-byte accounting" `Quick test_live_bytes_accounting;
          Alcotest.test_case "blits and compare" `Quick test_blits_and_compare;
          Alcotest.test_case "overlapping blit" `Quick test_blit_within_overlap;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
          Alcotest.test_case "double free rejected" `Quick test_double_free;
        ] );
      ( "undo-journal",
        [
          Alcotest.test_case "abort restores bytes" `Quick test_txn_abort_restores_bytes;
          Alcotest.test_case "abort returns allocations" `Quick test_txn_abort_returns_allocations;
          Alcotest.test_case "frees deferred to commit" `Quick test_txn_frees_deferred;
          Alcotest.test_case "nesting rejected" `Quick test_txn_nesting_rejected;
          Alcotest.test_case "fresh bump memory re-zeroed" `Quick test_abort_fresh_zeroed;
          Alcotest.test_case "store straddling the frontier" `Quick test_abort_straddling_store;
          Alcotest.test_case "recycled block pre-image" `Quick test_abort_recycled_block;
          Alcotest.test_case "after a transaction past the log cap" `Quick
            test_abort_after_large_txn;
          Alcotest.test_case "shadow keeps pre-images" `Quick test_abort_keeps_shadow;
          Alcotest.test_case "double free among 10k pending" `Quick test_double_free_many_pending;
        ] );
    ]
