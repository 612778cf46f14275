(* Hybrid scheme (§6 conclusions): per-index choice between direct
   storage (small fixed keys) and partial keys (large or
   variable-length keys), plus its registry entry. *)

module Key = Pk_keys.Key
module Partial_key = Pk_partialkey.Partial_key
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Hybrid = Pk_core.Hybrid
module Record_store = Pk_records.Record_store

let scheme_testable =
  Alcotest.testable (fun ppf s -> Fmt.string ppf (Layout.scheme_tag s)) ( = )

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* {2 The threshold decision} *)

let test_threshold () =
  Alcotest.(check int) "threshold is 8 bytes" 8 Hybrid.threshold_bytes;
  Alcotest.check scheme_testable "keys at the threshold store directly"
    (Layout.Direct { key_len = Hybrid.threshold_bytes })
    (Hybrid.scheme_for ~key_len:(Some Hybrid.threshold_bytes) ());
  Alcotest.check scheme_testable "keys one past the threshold go partial"
    (Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 })
    (Hybrid.scheme_for ~key_len:(Some (Hybrid.threshold_bytes + 1)) ());
  Alcotest.check scheme_testable "tiny keys store directly"
    (Layout.Direct { key_len = 1 })
    (Hybrid.scheme_for ~key_len:(Some 1) ())

let test_variable_length () =
  Alcotest.check scheme_testable "variable-length keys go partial"
    (Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 })
    (Hybrid.scheme_for ~key_len:None ());
  Alcotest.check scheme_testable "granularity and l thread through"
    (Layout.Partial { granularity = Partial_key.Bit; l_bytes = 4 })
    (Hybrid.scheme_for ~key_len:None ~granularity:Partial_key.Bit ~l_bytes:4 ())

(* {2 Tagging} *)

let test_tag () =
  let mem, records = Support.make_env () in
  let ix = Index.make_hybrid ~key_len:(Some 8) Index.B_tree mem records in
  Alcotest.(check string) "direct-side tag" "hybrid(B/direct8)" ix.Index.tag;
  let mem, records = Support.make_env () in
  let ix = Index.make_hybrid ~key_len:(Some 9) Index.T_tree mem records in
  Alcotest.(check string) "partial-side tag" "hybrid(T/pk-byte-l2)" ix.Index.tag;
  let mem, records = Support.make_env () in
  let ix = Index.make_hybrid ~key_len:None Index.B_tree mem records in
  Alcotest.(check string) "variable-length tag" "hybrid(B/pk-byte-l2)" ix.Index.tag

(* {2 Round trips through both chosen schemes} *)

(* Model-based insert/lookup/delete conformance, once per side of the
   threshold (8-byte keys -> direct entries, 16-byte keys -> partial). *)
let round_trip key_len () =
  Support.conformance_run
    ~make_index:(fun mem records ->
      Index.make_hybrid ~key_len:(Some key_len) Index.B_tree mem records)
    ~key_len ~alphabet:16 ~n_keys:150 ~n_ops:600 ~seed:(1000 + key_len) ()

(* {2 The registry entry} *)

let test_registry () =
  let info = Index.Registry.get "hybrid" in
  Alcotest.(check string) "structure" "B" info.Index.Registry.structure;
  Alcotest.(check (option int))
    "entry bytes below threshold = direct" (Some (8 + 8))
    (info.Index.Registry.entry_bytes 8);
  Alcotest.(check (option int))
    "entry bytes above threshold = partial" (Some (8 + 4 + 2))
    (info.Index.Registry.entry_bytes 20);
  let mem, records = Support.make_env () in
  let ix = info.Index.Registry.build ~key_len:8 mem records in
  Alcotest.(check string) "registry build is the hybrid" "hybrid(B/direct8)" ix.Index.tag

let test_unknown_tag () =
  match Index.Registry.get "no-such-scheme" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error lists the valid tags (%s)" msg)
        true
        (contains msg "no-such-scheme" && contains msg "pkB" && contains msg "hybrid")

let () =
  Alcotest.run "hybrid"
    [
      ( "scheme choice",
        [
          Alcotest.test_case "threshold boundary" `Quick test_threshold;
          Alcotest.test_case "variable-length keys" `Quick test_variable_length;
          Alcotest.test_case "tag" `Quick test_tag;
        ] );
      ( "round trips",
        [
          Alcotest.test_case "direct side (8-byte keys)" `Quick (round_trip 8);
          Alcotest.test_case "partial side (16-byte keys)" `Quick (round_trip 16);
        ] );
      ( "registry",
        [
          Alcotest.test_case "hybrid entry" `Quick test_registry;
          Alcotest.test_case "unknown tag fails with valid tags" `Quick test_unknown_tag;
        ] );
    ]
