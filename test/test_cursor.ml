(* seq_from / range edge cases, run against every scheme in the
   registry: empty index, probes past either end, probes equal to keys
   (which for B-trees are the separators), short prefix probes (which
   for the prefix B+-tree hit truncated separators), inverted and
   single-key ranges. *)

module Key = Pk_keys.Key
module Record_store = Pk_records.Record_store
module Index = Pk_core.Index

let key_len = 12
let n_keys = 400

let entry = Alcotest.(pair Support.key_testable int)

(* Build one index per registry scheme over a fresh env, remembering
   each key's rid. *)
let build (info : Index.Registry.info) =
  let mem, records = Support.make_env () in
  let ix = info.Index.Registry.build ~key_len mem records in
  let keys = Support.sorted_keys ~seed:99 ~key_len ~alphabet:16 n_keys in
  let rids = Hashtbl.create n_keys in
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      Hashtbl.replace rids k rid;
      if not (ix.Index.insert k ~rid) then
        Alcotest.failf "%s: seed insert failed" info.Index.Registry.tag)
    (Support.shuffled ~seed:5 keys);
  (ix, keys, Hashtbl.find rids)

let with_built f =
  List.iter
    (fun (info : Index.Registry.info) ->
      let ix, keys, rid_of = build info in
      f info.Index.Registry.tag ix keys rid_of)
    (Index.Registry.all ())

(* The model answer for a cursor opened at [from]. *)
let expect keys rid_of from =
  Array.to_list keys
  |> List.filter (fun k -> Key.compare k from >= 0)
  |> List.map (fun k -> (k, rid_of k))

let check_from ~msg ix keys rid_of from =
  let want = expect keys rid_of from in
  let got =
    List.of_seq (Seq.take (List.length want + 1) (ix.Index.seq_from from))
  in
  Alcotest.(check (list entry)) msg want got

let collect_range ix ~lo ~hi =
  let acc = ref [] in
  ix.Index.range ~lo ~hi (fun ~key ~rid -> acc := (key, rid) :: !acc);
  List.rev !acc

let test_empty () =
  List.iter
    (fun (info : Index.Registry.info) ->
      let tag = info.Index.Registry.tag in
      let mem, records = Support.make_env () in
      let ix = info.Index.Registry.build ~key_len mem records in
      ignore records;
      let probe = Bytes.make key_len 'a' in
      Alcotest.(check (list entry))
        (tag ^ ": seq_from on empty index") []
        (List.of_seq (ix.Index.seq_from probe));
      Alcotest.(check (list entry))
        (tag ^ ": range on empty index") []
        (collect_range ix ~lo:(Bytes.make key_len '\000') ~hi:(Bytes.make key_len '\xff'));
      let seen = ref 0 in
      ix.Index.iter (fun ~key:_ ~rid:_ -> incr seen);
      Alcotest.(check int) (tag ^ ": iter on empty index") 0 !seen)
    (Index.Registry.all ())

let test_past_ends () =
  with_built (fun tag ix keys rid_of ->
      check_from ~msg:(tag ^ ": probe past max key") ix keys rid_of
        (Bytes.make key_len '\xff');
      (* One byte longer than the max key, so it sorts just above it. *)
      check_from ~msg:(tag ^ ": probe just above max key") ix keys rid_of
        (Bytes.cat keys.(n_keys - 1) (Bytes.make 1 '\x01'));
      check_from ~msg:(tag ^ ": probe below min key") ix keys rid_of
        (Bytes.make key_len '\000'))

(* Probes equal to existing keys.  Every key is a candidate B-tree
   separator, so sampling the array (plus both ends) covers
   probe-equal-to-separator at node boundaries. *)
let test_at_keys () =
  with_built (fun tag ix keys rid_of ->
      Array.iteri
        (fun i k ->
          if i mod 17 = 0 || i = n_keys - 1 then
            check_from
              ~msg:(Printf.sprintf "%s: probe equal to key %d" tag i)
              ix keys rid_of k)
        keys)

(* Short probes that are prefixes of stored keys — the prefix B+-tree's
   truncated separators are exactly such prefixes. *)
let test_prefix_probes () =
  with_built (fun tag ix keys rid_of ->
      List.iter
        (fun i ->
          List.iter
            (fun plen ->
              check_from
                ~msg:(Printf.sprintf "%s: %d-byte prefix of key %d" tag plen i)
                ix keys rid_of
                (Bytes.sub keys.(i) 0 plen))
            [ 1; key_len / 2; key_len - 1 ])
        [ 0; 57; 200; n_keys - 1 ])

let test_range_edges () =
  with_built (fun tag ix keys rid_of ->
      Alcotest.(check (list entry))
        (tag ^ ": lo > hi range is empty")
        []
        (collect_range ix ~lo:keys.(n_keys / 2) ~hi:keys.((n_keys / 2) - 10));
      let k = keys.(123) in
      Alcotest.(check (list entry))
        (tag ^ ": [k, k] range is a singleton")
        [ (k, rid_of k) ]
        (collect_range ix ~lo:k ~hi:k);
      Alcotest.(check (list entry))
        (tag ^ ": full range returns everything")
        (expect keys rid_of (Bytes.make key_len '\000'))
        (collect_range ix ~lo:(Bytes.make key_len '\000')
           ~hi:(Bytes.make key_len '\xff')))

let () =
  Alcotest.run "cursor"
    [
      ( "edge cases",
        [
          Alcotest.test_case "empty index" `Quick test_empty;
          Alcotest.test_case "probes past either end" `Quick test_past_ends;
          Alcotest.test_case "probes equal to keys/separators" `Quick test_at_keys;
          Alcotest.test_case "prefix (truncated-separator) probes" `Quick test_prefix_probes;
          Alcotest.test_case "range edges" `Quick test_range_edges;
        ] );
    ]
