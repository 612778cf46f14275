(* Batched access path: group-descent lookups, batched mutations,
   bottom-up bulk load, and the zero-allocation contract. *)

module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Record_store = Pk_records.Record_store

let key_len = 12

(* Every scheme x structure, plus the prefix B+-tree and the hybrid. *)
let makers : (string * (Pk_mem.Mem.t -> Record_store.t -> Index.t)) list =
  List.concat_map
    (fun st ->
      List.map
        (fun (sname, scheme) ->
          ( Index.structure_tag st ^ "/" ^ sname,
            fun mem records -> Index.make st scheme mem records ))
        (Support.scheme_matrix ~key_len))
    [ Index.B_tree; Index.T_tree ]
  @ [
      ("B+/prefix", fun mem records -> Index.make_prefix_btree mem records);
      ( "hybrid",
        fun mem records -> Index.make_hybrid ~key_len:(Some key_len) Index.B_tree mem records );
    ]

let loaded_index make ~seed ~n =
  let mem, records = Support.make_env () in
  let ix = make mem records in
  let rng = Prng.create (Int64.of_int seed) in
  let keys = Keygen.uniform ~rng ~key_len ~alphabet:8 n in
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      if not (ix.Index.insert k ~rid) then Alcotest.failf "seed insert %s" (Key.to_hex k))
    keys;
  (ix, records, keys)

(* {2 Batched lookup == singles, with deref parity} *)

let check_batch_lookup (name, make) seed =
  let n = 300 in
  let ix, _records, keys = loaded_index make ~seed ~n in
  let rng = Prng.create (Int64.of_int (seed + 7)) in
  let present = Hashtbl.create n in
  Array.iter (fun k -> Hashtbl.replace present k ()) keys;
  let absent =
    Keygen.uniform ~rng ~key_len ~alphabet:9 100
    |> Array.to_list
    |> List.filter (fun k -> not (Hashtbl.mem present k))
    |> Array.of_list
  in
  let m = 150 in
  (* Mixed batch: present keys (with duplicates) and absent keys. *)
  let probes =
    Array.init m (fun i ->
        if i mod 3 = 2 && Array.length absent > 0 then
          absent.(Prng.int rng (Array.length absent))
        else keys.(Prng.int rng n))
  in
  ix.Index.reset_counters ();
  let singles = Array.map ix.Index.lookup probes in
  let derefs_singles = ix.Index.deref_count () in
  ix.Index.reset_counters ();
  (* An out array longer than the batch: slots past it stay untouched. *)
  let out = Array.make (m + 3) 99 in
  ix.Index.lookup_into probes out;
  let derefs_batch = ix.Index.deref_count () in
  Array.iteri
    (fun i want ->
      let expect = match want with None -> -1 | Some r -> r in
      if out.(i) <> expect then
        Alcotest.failf "%s (seed %d): probe %d (%s): batch %d, single %s" name seed i
          (Key.to_hex probes.(i)) out.(i)
          (match want with None -> "None" | Some r -> string_of_int r))
    singles;
  if out.(m) <> 99 || out.(m + 2) <> 99 then Alcotest.failf "%s: slot past the batch written" name;
  (* A3 still holds on the batched path: same dereference total. *)
  if derefs_batch <> derefs_singles then
    Alcotest.failf "%s (seed %d): batch derefs %d <> singles derefs %d" name seed derefs_batch
      derefs_singles;
  true

(* {2 Batched mutations == singles in batch order} *)

let dump ix =
  let l = ref [] in
  ix.Index.iter (fun ~key ~rid -> l := (key, rid) :: !l);
  List.rev !l

let check_batch_mutations (name, make) seed =
  let rng = Prng.create (Int64.of_int seed) in
  let pool_n = 260 in
  let pool = Keygen.uniform ~rng ~key_len ~alphabet:6 pool_n in
  let mem_a, rec_a = Support.make_env () in
  let mem_b, rec_b = Support.make_env () in
  let a = make mem_a rec_a and b = make mem_b rec_b in
  (* Identical record-allocation histories keep rids comparable. *)
  let pre = Array.sub pool 0 (pool_n / 2) in
  Array.iter
    (fun k ->
      let ra = Record_store.insert rec_a ~key:k ~payload:Bytes.empty in
      let rb = Record_store.insert rec_b ~key:k ~payload:Bytes.empty in
      ignore (a.Index.insert k ~rid:ra);
      ignore (b.Index.insert k ~rid:rb))
    pre;
  let m = 100 in
  (* Inserts, including keys already present and in-batch duplicates. *)
  let ins = Array.init m (fun _ -> pool.(Prng.int rng pool_n)) in
  let rids_a = Array.map (fun k -> Record_store.insert rec_a ~key:k ~payload:Bytes.empty) ins in
  let rids_b = Array.map (fun k -> Record_store.insert rec_b ~key:k ~payload:Bytes.empty) ins in
  let res_batch = a.Index.insert_batch ins ~rids:rids_a in
  let res_single = Array.mapi (fun i k -> b.Index.insert k ~rid:rids_b.(i)) ins in
  if res_batch <> res_single then Alcotest.failf "%s (seed %d): insert results differ" name seed;
  a.Index.validate ();
  let del = Array.init m (fun _ -> pool.(Prng.int rng pool_n)) in
  let del_batch = a.Index.delete_batch del in
  let del_single = Array.map b.Index.delete del in
  if del_batch <> del_single then Alcotest.failf "%s (seed %d): delete results differ" name seed;
  a.Index.validate ();
  b.Index.validate ();
  if a.Index.count () <> b.Index.count () then
    Alcotest.failf "%s (seed %d): counts %d vs %d" name seed (a.Index.count ())
      (b.Index.count ());
  if dump a <> dump b then Alcotest.failf "%s (seed %d): contents differ" name seed;
  true

(* {2 Bulk load == incremental build} *)

let check_bulk_load (name, make) seed =
  let n = 600 in
  let keys = Support.sorted_keys ~seed ~key_len ~alphabet:8 n in
  List.iter
    (fun fill ->
      let mem, records = Support.make_env () in
      let bulk = make mem records in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      bulk.Index.of_sorted ~fill entries;
      bulk.Index.validate ();
      if bulk.Index.count () <> n then
        Alcotest.failf "%s fill %.2f: count %d" name fill (bulk.Index.count ());
      Array.iter
        (fun (k, rid) ->
          match bulk.Index.lookup k with
          | Some r when r = rid -> ()
          | _ -> Alcotest.failf "%s fill %.2f: lookup %s after bulk load" name fill (Key.to_hex k))
        entries;
      (* The batched path agrees on the bulk-loaded shape too. *)
      let got = Array.make n (-1) in
      bulk.Index.lookup_into keys got;
      Array.iteri
        (fun i r ->
          if r <> snd entries.(i) then Alcotest.failf "%s fill %.2f: batch lookup on bulk" name fill)
        got;
      (* Same contents as an incremental build over shuffled input. *)
      let mem2, rec2 = Support.make_env () in
      let inc = make mem2 rec2 in
      Array.iter
        (fun k ->
          let rid = Record_store.insert rec2 ~key:k ~payload:Bytes.empty in
          if not (inc.Index.insert k ~rid) then Alcotest.failf "%s: incremental insert" name)
        (Support.shuffled ~seed:(seed + 1) keys);
      inc.Index.validate ();
      if inc.Index.count () <> bulk.Index.count () then
        Alcotest.failf "%s fill %.2f: bulk/incremental counts differ" name fill;
      if List.map fst (dump bulk) <> List.map fst (dump inc) then
        Alcotest.failf "%s fill %.2f: bulk/incremental key sequences differ" name fill)
    [ 0.5; 0.75; 1.0 ];
  true

let test_bulk_load_errors () =
  List.iter
    (fun (name, make) ->
      let mem, records = Support.make_env () in
      let ix = make mem records in
      let keys = Support.sorted_keys ~seed:3 ~key_len ~alphabet:8 50 in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      (* Unsorted input is rejected. *)
      let swapped = Array.copy entries in
      let tmp = swapped.(10) in
      swapped.(10) <- swapped.(11);
      swapped.(11) <- tmp;
      (try
         ix.Index.of_sorted ~fill:1.0 swapped;
         Alcotest.failf "%s: unsorted input accepted" name
       with Invalid_argument _ -> ());
      (* Duplicates are rejected (not strictly ascending). *)
      let dup = Array.copy entries in
      dup.(20) <- dup.(21);
      (try
         ix.Index.of_sorted ~fill:1.0 dup;
         Alcotest.failf "%s: duplicate input accepted" name
       with Invalid_argument _ -> ());
      (* Failed validation left the index untouched and loadable. *)
      ix.Index.of_sorted ~fill:1.0 entries;
      ix.Index.validate ();
      (* A second bulk load on a non-empty index is rejected. *)
      try
        ix.Index.of_sorted ~fill:1.0 entries;
        Alcotest.failf "%s: bulk load on non-empty index accepted" name
      with Invalid_argument _ -> ())
    makers

(* Out-of-range fill factors are clamped, not fatal. *)
let test_fill_clamped () =
  List.iter
    (fun fill ->
      let mem, records = Support.make_env () in
      let ix = Index.make Index.B_tree (Layout.Direct { key_len }) mem records in
      let keys = Support.sorted_keys ~seed:11 ~key_len ~alphabet:8 400 in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      ix.Index.of_sorted ~fill entries;
      ix.Index.validate ();
      Alcotest.(check int) "count" 400 (ix.Index.count ()))
    [ -1.0; 0.0; 0.3; 2.5 ]

(* {2 Zero-allocation contract}

   Steady-state [lookup_into] must not allocate per probe, and a single
   [lookup] — a one-probe batch over the tree's one-slot scratch — may
   allocate only its [Some] box, on every scheme family: direct and
   indirect (sign comparisons), partial keys at byte and bit
   granularity on both trees (packed FINDNODE results in the tree's
   entry_ops), and the prefix B+-tree (sign comparisons over stored
   suffixes). *)

let zero_alloc_indexes () =
  List.map
    (fun (sname, build) ->
      let mem, records = Support.make_env () in
      let ix : Index.t = build mem records in
      let rng = Prng.create 99L in
      let n = 6000 in
      let keys = Keygen.uniform ~rng ~key_len ~alphabet:8 n in
      Array.iter
        (fun k ->
          let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
          ignore (ix.Index.insert k ~rid))
        keys;
      (sname, ix, Array.init 256 (fun _ -> keys.(Prng.int rng n))))
    (List.map
       (fun (sname, st, scheme) -> (sname, Index.make st scheme))
       [
         ("B/direct", Index.B_tree, Layout.Direct { key_len });
         ("B/indirect", Index.B_tree, Layout.Indirect);
         ("T/direct", Index.T_tree, Layout.Direct { key_len });
         ("T/indirect", Index.T_tree, Layout.Indirect);
         ( "B/pk-bit-l2",
           Index.B_tree,
           Layout.Partial { granularity = Pk_partialkey.Partial_key.Bit; l_bytes = 2 } );
       ]
    @ List.map
        (fun tag -> (tag, Index.Registry.build ~key_len tag))
        [ "pkB"; "pkT"; "B+/prefix" ])

(* Minor words per call of [f] over [calls] calls, after three warm-up
   rounds that grow the scratch arrays. *)
let minor_words_per ~calls f =
  for _ = 1 to 3 do
    f ()
  done;
  let rounds = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int (rounds * calls)

let test_zero_alloc () =
  List.iter
    (fun (sname, ix, probes) ->
      let m = Array.length probes in
      let out = Array.make m (-1) in
      let per_probe = minor_words_per ~calls:m (fun () -> ix.Index.lookup_into probes out) in
      if per_probe > 0.1 then Alcotest.failf "%s: %.4f minor words per probe" sname per_probe)
    (zero_alloc_indexes ())

let test_zero_alloc_single () =
  List.iter
    (fun (sname, ix, probes) ->
      let m = Array.length probes in
      let per_call =
        minor_words_per ~calls:m (fun () ->
            for i = 0 to m - 1 do
              ignore (ix.Index.lookup probes.(i) : int option)
            done)
      in
      if per_call > 2.0 then Alcotest.failf "%s: %.4f minor words per single lookup" sname per_call)
    (zero_alloc_indexes ())

(* Singles between two identical batches run through the tree's one-slot
   scratch: the second batch must re-aim the scratch at its own arrays
   and reproduce the first, and the singles must leave the caller's
   result array alone. *)
let test_interleaved (name, make) =
  let ix, _records, keys = loaded_index make ~seed:17 ~n:400 in
  let rng = Prng.create 18L in
  (* Alphabet 9 draws mostly absent keys: misses mixed with hits. *)
  let others = Keygen.uniform ~rng ~key_len ~alphabet:9 16 in
  let probes =
    Array.init 64 (fun i ->
        if i mod 4 = 3 then others.(i / 4) else keys.(Prng.int rng (Array.length keys)))
  in
  let first = Array.make 64 (-2) in
  ix.Index.lookup_into probes first;
  let kept = Array.copy first in
  Array.iteri
    (fun i k ->
      let want = if first.(i) < 0 then None else Some first.(i) in
      if ix.Index.lookup k <> want then Alcotest.failf "%s: single %d disagrees with batch" name i)
    probes;
  if first <> kept then Alcotest.failf "%s: singles wrote the caller's result array" name;
  let again = Array.make 64 (-2) in
  ix.Index.lookup_into probes again;
  if again <> first then Alcotest.failf "%s: batch after singles differs" name

(* {2 Edge cases} *)

let test_empty_and_errors () =
  let mem, records = Support.make_env () in
  let ix = Index.make Index.B_tree (Layout.Direct { key_len }) mem records in
  (* Empty batch. *)
  ix.Index.lookup_into [||] [||];
  Alcotest.(check int) "empty insert" 0
    (Array.length (ix.Index.insert_batch [||] ~rids:[||]));
  (* Batch and single against an empty index. *)
  let keys = Support.sorted_keys ~seed:5 ~key_len ~alphabet:8 10 in
  let out = Array.make 10 0 in
  ix.Index.lookup_into keys out;
  Array.iter (fun r -> if r <> -1 then Alcotest.fail "empty index returned a hit") out;
  if ix.Index.lookup keys.(0) <> None then Alcotest.fail "empty index returned a single hit";
  (* Mismatched rids. *)
  (try
     ignore (ix.Index.insert_batch keys ~rids:[| 1 |]);
     Alcotest.fail "mismatched rids accepted"
   with Invalid_argument _ -> ());
  (* Undersized out array. *)
  (try
     ix.Index.lookup_into keys (Array.make 3 0);
     Alcotest.fail "undersized out accepted"
   with Invalid_argument _ -> ());
  ignore records

let seeds_for prop pairs =
  List.map
    (fun ((name, _) as maker) ->
      Support.seeded_qtest ~count:12 name (fun seed -> prop maker seed))
    pairs

let () =
  Alcotest.run "pk_batch"
    [
      ("batch-lookup", seeds_for check_batch_lookup makers);
      ("batch-mutations", seeds_for check_batch_mutations makers);
      ("bulk-load", seeds_for check_bulk_load makers);
      ( "bulk-load-edges",
        [
          Alcotest.test_case "errors" `Quick test_bulk_load_errors;
          Alcotest.test_case "fill clamped" `Quick test_fill_clamped;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "every scheme lookup_into" `Quick test_zero_alloc;
          Alcotest.test_case "every scheme single lookup" `Quick test_zero_alloc_single;
        ] );
      ( "interleaved",
        List.map
          (fun ((name, _) as maker) ->
            Alcotest.test_case name `Quick (fun () -> test_interleaved maker))
          makers );
      ("edges", [ Alcotest.test_case "empty and errors" `Quick test_empty_and_errors ]);
    ]
