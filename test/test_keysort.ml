(* The one key sort (Pk_core.Keysort) and the rebuild pipeline built on
   it: packed-prefix order, the permutation sort's tie-by-slot contract,
   the parallel entry sort, gapped bulk loads, round-trip
   reconstruction and in-place compaction.

   The sort oracle is the plain full-key sort; the round-trip oracle is
   the source index itself (rids are preserved, so lookups must come
   back byte-identical).  The mutation self-test checks the suite has
   teeth: a comparator that orders by packed prefix and slot only,
   skipping the full-key comparison on a packed tie, must be convicted
   by the oracle. *)

module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Index = Pk_core.Index
module Layout = Pk_core.Layout
module Btree = Pk_core.Btree
module Keysort = Pk_core.Keysort
module Record_store = Pk_records.Record_store

let key_len = 12

(* {2 pack: order embedding on the 7-byte prefix} *)

let test_pack () =
  let check a b =
    let ka = Bytes.of_string a and kb = Bytes.of_string b in
    let c = Int.compare (Keysort.pack ka) (Keysort.pack kb) in
    let full = Key.compare ka kb in
    (* pack order never contradicts key order; it may only tie. *)
    if c <> 0 && (c < 0) <> (full < 0) then
      Alcotest.failf "pack order contradicts key order on %S / %S" a b
  in
  let samples =
    [ ""; "\000"; "a"; "ab"; "abcdefg"; "abcdefgh"; "abcdefgz"; "abcdefg\000"; "zzzzzzzz"; "\255\255\255\255\255\255\255" ]
  in
  List.iter (fun a -> List.iter (fun b -> check a b) samples) samples;
  (* Keys equal on the first 7 bytes must tie. *)
  Alcotest.(check int)
    "7-byte-prefix collision ties" 0
    (Int.compare
       (Keysort.pack (Bytes.of_string "abcdefgAAA"))
       (Keysort.pack (Bytes.of_string "abcdefgZZZ")))

(* {2 The entry sort: parallel ≡ sequential ≡ full-key oracle}

   Inputs deliberately mix duplicate keys (dedup: first occurrence
   wins) and 7-byte-shared-prefix families (packed-prefix collisions,
   so the full-key tie comparison is actually exercised).  Each entry's
   value is its input position, so the oracle can tell which duplicate
   survived. *)

let mk_keys ~seed n =
  let rng = Prng.create (Int64.of_int seed) in
  let base = Keygen.uniform ~rng ~key_len ~alphabet:16 (max 1 (n / 2)) in
  Array.init n (fun i ->
      if i < Array.length base then base.(i)
      else if Prng.int rng 3 = 0 then
        (* duplicate of an earlier key *)
        Bytes.copy base.(Prng.int rng (Array.length base))
      else begin
        (* packed-prefix collision: same first 7 bytes, fresh tail *)
        let k = Bytes.copy base.(Prng.int rng (Array.length base)) in
        for j = Keysort.pk_bytes to key_len - 1 do
          Bytes.set k j (Char.chr (Char.code 'a' + Prng.int rng 26))
        done;
        k
      end)

let mk_entries ~seed n = Array.mapi (fun i k -> (k, i)) (mk_keys ~seed n)

(* Stable full-key sort, then keep the first occurrence of each key. *)
let oracle entries =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Key.compare a b) (Array.to_list entries) in
  let rec dedup = function
    | (a, x) :: (b, _) :: rest when Key.equal a b -> dedup ((a, x) :: rest)
    | e :: rest -> e :: dedup rest
    | [] -> []
  in
  Array.of_list (dedup sorted)

let entries_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (ka, ra) (kb, rb) -> Key.equal ka kb && Int.equal ra rb) a b

(* Distinct keys minus distinct packed prefixes: the adjacent distinct
   pairs inside packed-prefix groups of the sorted output. *)
let expected_collisions sorted =
  let pks = Hashtbl.create 64 in
  Array.iter (fun (k, _) -> Hashtbl.replace pks (Keysort.pack k) ()) sorted;
  Array.length sorted - Hashtbl.length pks

let check_sort_matches ~seed n =
  let entries = mk_entries ~seed n in
  let want = oracle entries in
  List.for_all
    (fun domains ->
      let got, stats = Keysort.sort_entries ~domains entries in
      if not (entries_equal got want) then
        Alcotest.failf "seed %d, %d domains: sorted output diverges from full-key oracle"
          seed domains;
      if stats.Keysort.sorted_keys <> Array.length want then
        Alcotest.failf "seed %d, %d domains: sorted_keys %d, want %d" seed domains
          stats.Keysort.sorted_keys (Array.length want);
      if stats.Keysort.pk_collisions <> expected_collisions want then
        Alcotest.failf "seed %d, %d domains: pk_collisions %d, want %d" seed domains
          stats.Keysort.pk_collisions (expected_collisions want);
      true)
    [ 1; 2; 4 ]

let test_sort_oracle =
  Support.seeded_qtest ~count:60 "parallel sort matches full-key oracle" (fun seed ->
      check_sort_matches ~seed (1 + (seed mod 200)))

(* The tie-by-slot contract batched mutations rely on: over arrays with
   duplicates, [sort_perm] yields exactly the stable full-key order of
   the slots. *)
let test_sort_perm_stable =
  Support.seeded_qtest ~count:100 "sort_perm with duplicates is the stable full-key order"
    (fun seed ->
      let keys = mk_keys ~seed 64 in
      let pks = Array.map Keysort.pack keys in
      let perm = Array.init 64 Fun.id in
      Keysort.sort_perm pks keys perm 64;
      let want = List.stable_sort (fun a b -> Key.compare keys.(a) keys.(b)) (List.init 64 Fun.id) in
      if not (List.equal Int.equal (Array.to_list perm) want) then Alcotest.failf "seed %d: sort_perm is not stable" seed;
      true)

let test_sort_edges () =
  let got, stats = Keysort.sort_entries ~domains:4 [||] in
  Alcotest.(check int) "empty output" 0 (Array.length got);
  Alcotest.(check int) "empty runs" 0 stats.Keysort.runs;
  (* more domains than entries: runs are clamped to the entry count *)
  let got, stats = Keysort.sort_entries ~domains:8 [| (Bytes.of_string "only-key-xyz", 7) |] in
  Alcotest.(check int) "singleton output" 1 (Array.length got);
  Alcotest.(check int) "singleton runs" 1 stats.Keysort.runs

(* {2 Mutation self-test: the full-key tie comparison is load-bearing}

   A comparator ordering by packed prefix and slot only lets keys
   differing past byte 7 fall back to input order.  Feed such a family
   in descending tail order: the honest sort must reorder it, the
   mutated one must not, and the oracle must tell them apart. *)

let test_packed_only_mutation () =
  let entries =
    Array.init 16 (fun i ->
        (* tails 'p', 'o', ..., descending: input order is reversed key
           order, and every pair collides on the packed prefix. *)
        (Bytes.of_string (Printf.sprintf "prefix7%c" (Char.chr (Char.code 'a' + 15 - i))), i))
  in
  let want = oracle entries in
  let honest, stats = Keysort.sort_entries entries in
  if not (entries_equal honest want) then
    Alcotest.fail "honest sort diverges on the collision family";
  Alcotest.(check int) "every adjacent pair collides" 15 stats.Keysort.pk_collisions;
  let packed_only =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare (Keysort.pack a) (Keysort.pack b))
      (Array.to_list entries)
  in
  if entries_equal (Array.of_list packed_only) want then
    Alcotest.fail
      "a packed-prefix-and-slot comparator still sorts the collision family (mutation not \
       detected — the oracle has no teeth)"

(* {2 Gap-fill bounds per leaf}

   Upper bound: after a gapped load, every leaf keeps free slots, so a
   sparse tail of inserts (at most one per leaf span) lands in place —
   node_count must not move.  Lower bound: [validate] enforces B-tree
   minimum occupancy, so over-empty leaves would throw there.  The
   gap 0.0 contrast shows the probe splits a packed tree. *)

let test_gap_bounds () =
  let mem, records = Support.make_env () in
  let load ~gap =
    let t =
      Btree.create mem records (Btree.default_config (Layout.Direct { key_len }))
    in
    let pool = Support.sorted_keys ~seed:5 ~key_len ~alphabet:16 800 in
    let resident =
      Array.init 400 (fun i ->
          let k = pool.(2 * i) in
          (k, Record_store.insert records ~key:k ~payload:Bytes.empty))
    in
    Btree.bulk_load t ~gap resident;
    Btree.validate t;
    Alcotest.(check int) (Printf.sprintf "gap %.2f count" gap) 400 (Btree.count t);
    (t, pool)
  in
  let probe (t, pool) =
    let before = Btree.node_count t in
    Array.iteri
      (fun i k ->
        if i mod 40 = 1 then begin
          let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
          if not (Btree.insert t k ~rid) then Alcotest.fail "probe insert rejected"
        end)
      pool;
    Btree.validate t;
    Btree.node_count t - before
  in
  let gapped = load ~gap:0.25 in
  let packed = load ~gap:0.0 in
  (* More leaves with more gap: the slack is real space. *)
  if Btree.node_count (fst gapped) <= Btree.node_count (fst packed) then
    Alcotest.failf "gap 0.25 built %d nodes, gap 0.0 built %d — slack not materialised"
      (Btree.node_count (fst gapped))
      (Btree.node_count (fst packed));
  Alcotest.(check int) "gapped tree absorbs the sparse tail in place" 0 (probe gapped);
  if probe packed <= 0 then
    Alcotest.fail "packed tree absorbed the probe tail without splitting (probe has no teeth)"

(* {2 Round-trip: rebuild(index) ≡ index for every registered scheme}

   The rebuild pipeline: extract the (key, rid) pairs through [iter],
   sort them, and bulk-load them gapped into an empty index. *)

let dump (ix : Index.t) =
  let acc = ref [] in
  ix.Index.iter (fun ~key ~rid -> acc := (key, rid) :: !acc);
  List.rev !acc

let rebuild ?domains ~(into : Index.t) entries =
  let sorted, stats = Keysort.sort_entries ?domains entries in
  if Array.length sorted > 0 then into.Index.of_sorted ~gap:0.1 ~fill:(Layout.gap_fill ~gap:0.1) sorted;
  stats

let churn ~seed ~n records (ix : Index.t) =
  let rng = Prng.create (Int64.of_int seed) in
  let pool = Keygen.uniform ~rng ~key_len ~alphabet:16 n in
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:(Bytes.of_string (Key.to_hex k)) in
      if not (ix.Index.insert k ~rid) then Record_store.delete records rid)
    pool;
  (* delete a third, reinsert a few: leaves end up ragged *)
  Array.iteri
    (fun i k ->
      if i mod 3 = 0 then
        match ix.Index.lookup k with
        | Some rid ->
            ignore (ix.Index.delete k : bool);
            Record_store.delete records rid
        | None -> ())
    pool;
  Array.iteri
    (fun i k ->
      if i mod 9 = 0 && ix.Index.lookup k = None then begin
        let rid = Record_store.insert records ~key:k ~payload:(Bytes.of_string (Key.to_hex k)) in
        ignore (ix.Index.insert k ~rid : bool)
      end)
    pool;
  pool

let check_same_content tag ~pool (a : Index.t) (b : Index.t) =
  if a.Index.count () <> b.Index.count () then
    Alcotest.failf "%s: count %d vs %d" tag (a.Index.count ()) (b.Index.count ());
  let da = dump a and db = dump b in
  List.iter2
    (fun (ka, ra) (kb, rb) ->
      if not (Key.equal ka kb) then
        Alcotest.failf "%s: iteration key %s vs %s" tag (Key.to_hex ka) (Key.to_hex kb);
      if not (Int.equal ra rb) then
        Alcotest.failf "%s: rid %d vs %d for %s" tag ra rb (Key.to_hex ka))
    da db;
  (* byte-equal lookups across the whole probe pool, hits and misses *)
  Array.iter
    (fun k ->
      if not (Option.equal Int.equal (a.Index.lookup k) (b.Index.lookup k)) then
        Alcotest.failf "%s: lookup %s diverges after rebuild" tag (Key.to_hex k))
    pool;
  b.Index.validate ()

let rebuild_case tag =
  Alcotest.test_case tag `Quick (fun () ->
      let mem, records = Support.make_env () in
      let src = Index.Registry.build ~key_len tag mem records in
      let pool = churn ~seed:31 ~n:500 records src in
      let dst = Index.Registry.build ~key_len tag mem records in
      let stats = rebuild ~domains:2 ~into:dst (Array.of_list (dump src)) in
      Alcotest.(check int)
        (tag ^ ": sorted_keys = live count") (src.Index.count ())
        stats.Keysort.sorted_keys;
      check_same_content tag ~pool src dst;
      (* post-compact deep-validate: compacting the rebuilt tree in
         place must change nothing observable. *)
      dst.Index.compact ~gap:0.1 ();
      check_same_content (tag ^ " (compacted)") ~pool src dst)

(* Cross-structure rebuild: rids survive, so a pkB-tree rebuilt into a
   T-tree answers byte-identical lookups. *)
let test_rebuild_across_tags () =
  let mem, records = Support.make_env () in
  let src = Index.Registry.build ~key_len "pkB" mem records in
  let pool = churn ~seed:77 ~n:400 records src in
  let dst = Index.Registry.build ~key_len "T-indirect" mem records in
  ignore (rebuild ~into:dst (Array.of_list (dump src)) : Keysort.stats);
  check_same_content "pkB->T-indirect" ~pool src dst

let test_rebuild_from_buffer () =
  let mem, records = Support.make_env () in
  let rng = Prng.create 13L in
  let keys = Keygen.uniform ~rng ~key_len ~alphabet:16 300 in
  let buffer =
    Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
  in
  (* duplicate a slice: first occurrence must win *)
  let dup = Array.map (fun (k, _) -> (Bytes.copy k, -1)) (Array.sub buffer 0 50) in
  let ix = Index.Registry.build ~key_len "pkB" mem records in
  let stats = rebuild ~domains:4 ~into:ix (Array.append buffer dup) in
  Alcotest.(check int) "deduped to the key set" 300 stats.Keysort.sorted_keys;
  Alcotest.(check int) "count" 300 (ix.Index.count ());
  Array.iter
    (fun (k, rid) ->
      match ix.Index.lookup k with
      | Some r when Int.equal r rid -> ()
      | _ -> Alcotest.failf "buffer rebuild lost %s (or picked the duplicate's rid)"
               (Key.to_hex k))
    buffer;
  ix.Index.validate ()

let () =
  Pk_core.Hybrid.ensure_registered ();
  Pk_core.Variants.ensure_registered ();
  Pk_shard.Shard.ensure_registered ();
  let tags = Index.Registry.tags () in
  Alcotest.run "keysort"
    [
      ( "sort",
        [
          Alcotest.test_case "pack order embedding" `Quick test_pack;
          test_sort_oracle;
          test_sort_perm_stable;
          Alcotest.test_case "edges" `Quick test_sort_edges;
          Alcotest.test_case "tie-break mutation detected" `Quick test_packed_only_mutation;
        ] );
      ("gap", [ Alcotest.test_case "per-leaf bounds" `Quick test_gap_bounds ]);
      ("round-trip", List.map rebuild_case tags);
      ( "pipeline",
        [
          Alcotest.test_case "rebuild across structures" `Quick test_rebuild_across_tags;
          Alcotest.test_case "rebuild from unsorted buffer" `Quick test_rebuild_from_buffer;
        ] );
    ]
