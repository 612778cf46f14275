(* Deref-count regression lock-in.

   Record-key dereferences per lookup are the paper's central quantity
   (§5, Figures 9–10): partial keys exist to drive them toward one per
   search.  This suite pins the exact deref totals of a fixed workload
   for every registered scheme, so an engine or layout refactor that
   silently changes comparison behaviour — extra derefs on the descent,
   or derefs saved by accident — fails loudly rather than drifting.

   To regenerate the table after an intentional change:
     PK_DEREF_PRINT=1 dune exec test/test_deref.exe 2>/dev/null
   and paste the printed rows below. *)

module Index = Pk_core.Index
module Record_store = Pk_records.Record_store

let key_len = 12
let alphabet = 8
let n_keys = 500
let n_probes = 400

(* Build via the registry, insert a shuffled key set one by one, then
   probe with a fixed shuffled subset of present keys. *)
let measure tag =
  let mem, records = Support.make_env () in
  let ix = Index.Registry.build ~key_len tag mem records in
  let keys = Support.sorted_keys ~seed:3 ~key_len ~alphabet n_keys in
  Array.iter
    (fun key ->
      let rid = Record_store.insert records ~key ~payload:Bytes.empty in
      ignore (ix.Index.insert key ~rid))
    (Support.shuffled ~seed:5 keys);
  let probes = Array.sub (Support.shuffled ~seed:9 keys) 0 n_probes in
  ix.Index.reset_counters ();
  Array.iter (fun k -> ignore (ix.Index.lookup k)) probes;
  ix.Index.deref_count ()

(* The locked-in expectations: (registry tag, total derefs for the 400
   probes).  Direct schemes never touch the record heap; indirect
   schemes pay a deref per comparison; partial-key schemes sit near
   one per probe. *)
let expected =
  [
    ("B+/prefix", 0);
    ("B+/prefix-blocked", 0);
    ("B-direct", 0);
    ("B-indirect", 3257);
    ("B/pk-byte-l4", 401);
    ("T-direct", 0);
    ("T-indirect", 3369);
    ("hybrid", 503);
    ("pkB", 503);
    ("pkB-blocked", 503);
    ("pkT", 539);
    ("pkT-blocked", 539);
    ("sharded:2/B+/prefix", 0);
    ("sharded:4/pkB", 503);
  ]

let test_expected_table_covers_registry () =
  Alcotest.(check (list string))
    "expectation table covers exactly the registered schemes"
    (Index.Registry.tags ())
    (List.map fst expected)

let deref_case (tag, want) =
  Alcotest.test_case tag `Quick (fun () ->
      let got = measure tag in
      if got <> want then
        Alcotest.failf
          "%s: %d derefs for the fixed workload, table says %d — if the change is intentional, \
           regenerate with PK_DEREF_PRINT=1 dune exec test/test_deref.exe"
          tag got want)

let () =
  if Option.is_some (Sys.getenv_opt "PK_DEREF_PRINT") then begin
    List.iter
      (fun tag -> Printf.printf "    (%S, %d);\n" tag (measure tag))
      (Index.Registry.tags ());
    exit 0
  end;
  Alcotest.run "pk_deref"
    [
      ( "regression",
        Alcotest.test_case "table covers registry" `Quick test_expected_table_covers_registry
        :: List.map deref_case expected );
    ]
