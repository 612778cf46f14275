(* The rebuild-at-scale pipeline (Pk_rebuild.Rebuild): parallel
   compressed-key sort, gapped bulk loads, round-trip reconstruction
   and in-place compaction.

   The sort oracle is the plain full-key sort; the round-trip oracle is
   the source index itself (rids are preserved, so lookups must come
   back byte-identical).  The tie-break mutation self-test checks the
   suite has teeth: a comparator that skips the full-key dereference on
   packed-prefix collision must be convicted by the duplicate-pk
   ordering property. *)

module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Index = Pk_core.Index
module Layout = Pk_core.Layout
module Btree = Pk_core.Btree
module Record_store = Pk_records.Record_store
module Rebuild = Pk_rebuild.Rebuild

let key_len = 12

(* {2 pack_pk: order embedding on the 7-byte prefix} *)

let test_pack_pk () =
  let check a b =
    let ka = Bytes.of_string a and kb = Bytes.of_string b in
    let c = Int.compare (Rebuild.pack_pk ka) (Rebuild.pack_pk kb) in
    let full = Key.compare ka kb in
    (* pack order never contradicts key order; it may only tie. *)
    if c <> 0 && (c < 0) <> (full < 0) then
      Alcotest.failf "pack_pk order contradicts key order on %S / %S" a b
  in
  let samples =
    [ ""; "\000"; "a"; "ab"; "abcdefg"; "abcdefgh"; "abcdefgz"; "abcdefg\000"; "zzzzzzzz"; "\255\255\255\255\255\255\255" ]
  in
  List.iter (fun a -> List.iter (fun b -> check a b) samples) samples;
  (* Keys equal on the first 7 bytes must tie. *)
  Alcotest.(check int)
    "7-byte-prefix collision ties" 0
    (Int.compare
       (Rebuild.pack_pk (Bytes.of_string "abcdefgAAA"))
       (Rebuild.pack_pk (Bytes.of_string "abcdefgZZZ")))

(* {2 The sort stage: parallel ≡ sequential ≡ full-key oracle}

   Inputs deliberately mix duplicate keys (dedup: first occurrence
   wins) and 7-byte-shared-prefix families (packed-prefix collisions,
   so the tie-break dereference is actually exercised). *)

let mk_entries ~seed n =
  let _, records = Support.make_env () in
  let rng = Prng.create (Int64.of_int seed) in
  let base = Keygen.uniform ~rng ~key_len ~alphabet:16 (max 1 (n / 2)) in
  let entries =
    Array.init n (fun i ->
        let k =
          if i < Array.length base then base.(i)
          else if Prng.int rng 3 = 0 then
            (* duplicate of an earlier key *)
            Bytes.copy base.(Prng.int rng (Array.length base))
          else begin
            (* packed-prefix collision: same first 7 bytes, fresh tail *)
            let k = Bytes.copy base.(Prng.int rng (Array.length base)) in
            for j = Rebuild.pk_bytes to key_len - 1 do
              Bytes.set k j (Char.chr (Char.code 'a' + Prng.int rng 26))
            done;
            k
          end
        in
        (k, 0))
  in
  (* rids point at real records so the tie-break dereference has a heap
     to walk; duplicates get distinct rids, first-in-input must win. *)
  ( records,
    Array.map
      (fun (k, _) -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty))
      entries )

let oracle entries =
  let sorted = Array.copy entries in
  Array.sort (fun (a, _) (b, _) -> Key.compare a b) sorted;
  (* stable sort + first-occurrence dedup needs input positions: redo
     via a list fold keyed on first sighting. *)
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (k, rid) ->
      let s = Bytes.to_string k in
      if not (Hashtbl.mem seen s) then Hashtbl.add seen s rid)
    entries;
  let out = ref [] in
  Array.iter
    (fun (k, _) ->
      let s = Bytes.to_string k in
      match Hashtbl.find_opt seen s with
      | Some rid ->
          Hashtbl.remove seen s;
          out := (k, rid) :: !out
      | None -> ())
    sorted;
  Array.of_list (List.rev !out)

let entries_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (ka, ra) (kb, rb) -> Key.equal ka kb && Int.equal ra rb) a b

(* Two byte-distinct keys sharing a packed prefix: exactly the inputs on
   which a correct sort must take a tie-break dereference (it has to
   order the adjacent distinct pair inside the collision group), and
   the only ones on which it may. *)
let has_pk_collision entries =
  let first = Hashtbl.create 64 in
  Array.exists
    (fun (k, _) ->
      let pk = Rebuild.pack_pk k in
      match Hashtbl.find_opt first pk with
      | Some k0 -> not (Key.equal k k0)
      | None ->
          Hashtbl.add first pk k;
          false)
    entries

let check_sort_matches ~seed n =
  let records, entries = mk_entries ~seed n in
  let want = oracle entries in
  let collides = has_pk_collision entries in
  List.for_all
    (fun domains ->
      let got, stats = Rebuild.sort ~domains ~store:records entries in
      if not (entries_equal got want) then
        Alcotest.failf "seed %d, %d domains: sorted output diverges from full-key oracle"
          seed domains;
      if stats.Rebuild.sorted_keys <> Array.length want then
        Alcotest.failf "seed %d, %d domains: sorted_keys %d, want %d" seed domains
          stats.Rebuild.sorted_keys (Array.length want);
      if collides && stats.Rebuild.tie_derefs = 0 then
        Alcotest.failf "seed %d, %d domains: packed-prefix collision took no tie dereference"
          seed domains;
      if (not collides) && stats.Rebuild.tie_derefs > 0 then
        Alcotest.failf "seed %d, %d domains: %d tie dereferences without a packed-prefix collision"
          seed domains stats.Rebuild.tie_derefs;
      true)
    [ 1; 2; 4 ]

let test_sort_oracle =
  Support.seeded_qtest ~count:60 "parallel sort matches full-key oracle" (fun seed ->
      check_sort_matches ~seed (1 + (seed mod 200)))

let test_sort_edges () =
  let _, records = Support.make_env () in
  let got, stats = Rebuild.sort ~domains:4 ~store:records [||] in
  Alcotest.(check int) "empty output" 0 (Array.length got);
  Alcotest.(check int) "empty runs" 0 stats.Rebuild.runs;
  (* more domains than entries: runs are clamped to the entry count *)
  let k = Bytes.of_string "only-key-xyz" in
  let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
  let got, stats = Rebuild.sort ~domains:8 ~store:records [| (k, rid) |] in
  Alcotest.(check int) "singleton output" 1 (Array.length got);
  Alcotest.(check int) "singleton runs" 1 stats.Rebuild.runs

(* {2 Mutation self-test: the tie-break dereference is load-bearing}

   [tie_break:false] skips the full-key dereference on packed-prefix
   collision, so keys differing only past byte 7 fall back to input
   order.  Feed such a family in descending tail order: the honest sort
   must reorder it, the mutated sort must not. *)

let test_tie_break_mutation () =
  let _, records = Support.make_env () in
  let entries =
    Array.init 16 (fun i ->
        let k = Bytes.of_string "prefix7" in
        (* tails 'p', 'o', ..., descending: input order is reversed key
           order, and every pair collides on the packed prefix. *)
        let k = Bytes.cat k (Bytes.make 1 (Char.chr (Char.code 'a' + 15 - i))) in
        (k, Record_store.insert records ~key:k ~payload:Bytes.empty))
  in
  let want = oracle entries in
  let honest, honest_stats = Rebuild.sort ~store:records entries in
  if not (entries_equal honest want) then
    Alcotest.fail "honest sort diverges on the collision family";
  if honest_stats.Rebuild.tie_derefs = 0 then
    Alcotest.fail "honest sort on a pure-collision family took no dereferences";
  let mutated, mutated_stats = Rebuild.sort ~tie_break:false ~store:records entries in
  if entries_equal mutated want then
    Alcotest.fail
      "tie_break:false still sorts the collision family (mutation not detected — the \
       duplicate-pk ordering test has no teeth)";
  Alcotest.(check int) "mutated sort takes no dereferences" 0 mutated_stats.Rebuild.tie_derefs

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

(* {2 Round-trip: rebuild(index) ≡ index for every registered scheme} *)

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

let dump (ix : Index.t) =
  let acc = ref [] in
  ix.Index.iter (fun ~key ~rid -> acc := (key, rid) :: !acc);
  List.rev !acc

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
      let stats =
        Rebuild.rebuild ~domains:2 ~gap:0.1 ~store:records ~into:dst
          (Rebuild.Of_index src)
      in
      Alcotest.(check int)
        (tag ^ ": sorted_keys = live count") (src.Index.count ())
        stats.Rebuild.sorted_keys;
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
  ignore (Rebuild.rebuild ~store:records ~into:dst (Rebuild.Of_index src) : Rebuild.stats);
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
  let stats =
    Rebuild.rebuild ~domains:4 ~store:records ~into:ix
      (Rebuild.Of_buffer (Array.append buffer dup))
  in
  Alcotest.(check int) "deduped to the key set" 300 stats.Rebuild.sorted_keys;
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
  Alcotest.run "rebuild"
    [
      ( "sort",
        [
          Alcotest.test_case "pack_pk order embedding" `Quick test_pack_pk;
          test_sort_oracle;
          Alcotest.test_case "edges" `Quick test_sort_edges;
          Alcotest.test_case "tie-break mutation detected" `Quick test_tie_break_mutation;
        ] );
      ("gap", [ Alcotest.test_case "per-leaf bounds" `Quick test_gap_bounds ]);
      ("round-trip", List.map rebuild_case tags);
      ( "pipeline",
        [
          Alcotest.test_case "rebuild across structures" `Quick test_rebuild_across_tags;
          Alcotest.test_case "rebuild from unsorted buffer" `Quick test_rebuild_from_buffer;
        ] );
    ]
