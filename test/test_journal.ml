(* Write-ahead operation journal: framing, committed-prefix semantics,
   serialization validation, and end-to-end crash recovery. *)

module Journal = Pk_journal.Journal
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Index = Pk_core.Index
module Engine = Pk_core.Engine
module Record_store = Pk_records.Record_store

let b = Bytes.of_string

let op_testable =
  let pp ppf = function
    | Journal.Insert { key; payload } ->
        Fmt.pf ppf "Insert(%S,%S)" (Bytes.to_string key) (Bytes.to_string payload)
    | Journal.Delete { key } -> Fmt.pf ppf "Delete(%S)" (Bytes.to_string key)
  in
  let eq a b =
    match (a, b) with
    | Journal.Insert i, Journal.Insert j ->
        Bytes.equal i.key j.key && Bytes.equal i.payload j.payload
    | Journal.Delete i, Journal.Delete j -> Bytes.equal i.key j.key
    | _ -> false
  in
  Alcotest.testable pp eq

(* {2 Framing and accounting} *)

let test_framing () =
  let j = Journal.create () in
  Alcotest.(check int) "empty bytes" 0 (Journal.byte_size j);
  Alcotest.(check int) "empty records" 0 (Journal.record_count j);
  Alcotest.(check int) "empty last batch" 0 (Journal.last_batch j);
  let b1 = Journal.begin_batch j in
  Alcotest.(check int) "first batch id" 1 b1;
  Journal.log_insert j ~batch:b1 ~key:(b "alpha") ~payload:(b "pay-1");
  Journal.log_delete j ~batch:b1 ~key:(b "beta");
  Journal.commit j ~batch:b1;
  (* insert = 1+4+2+5+4+5 = 21, delete = 1+4+2+4 = 11, commit = 1+4 = 5 *)
  Alcotest.(check int) "byte size" 37 (Journal.byte_size j);
  Alcotest.(check int) "records" 2 (Journal.record_count j);
  Alcotest.(check int) "commits" 1 (Journal.commit_count j);
  (* Keys are copied at append time, not aliased. *)
  let k = b "gamma" in
  let b2 = Journal.begin_batch j in
  Journal.log_insert j ~batch:b2 ~key:k ~payload:Bytes.empty;
  Bytes.set k 0 'X';
  Journal.commit j ~batch:b2;
  (match Journal.committed_ops j with
  | 2, [ (1, i); (1, d); (2, g) ] ->
      Alcotest.check op_testable "insert" (Journal.Insert { key = b "alpha"; payload = b "pay-1" }) i;
      Alcotest.check op_testable "delete" (Journal.Delete { key = b "beta" }) d;
      Alcotest.check op_testable "copied key" (Journal.Insert { key = b "gamma"; payload = Bytes.empty }) g
  | _, ops -> Alcotest.failf "unexpected committed ops (%d)" (List.length ops));
  (* iter_records sees the commit markers too, offsets ascending. *)
  let seen = ref [] in
  let last_off = ref (-1) in
  Journal.iter_records j (fun ~off ~batch op ->
      if off <= !last_off then Alcotest.fail "offsets not ascending";
      last_off := off;
      seen := (batch, op = None) :: !seen);
  Alcotest.(check (list (pair int bool)))
    "record stream"
    [ (1, false); (1, false); (1, true); (2, false); (2, true) ]
    (List.rev !seen);
  (* Oversized keys are rejected up front. *)
  (try
     Journal.log_insert j ~batch:(Journal.begin_batch j) ~key:(Bytes.create 70000)
       ~payload:Bytes.empty;
     Alcotest.fail "oversized key accepted"
   with Invalid_argument _ -> ())

let test_committed_prefix () =
  let j = Journal.create () in
  let b1 = Journal.begin_batch j in
  Journal.log_insert j ~batch:b1 ~key:(b "a") ~payload:(b "1");
  Journal.commit j ~batch:b1;
  (* Uncommitted batch in the middle of the stream... *)
  let b2 = Journal.begin_batch j in
  Journal.log_insert j ~batch:b2 ~key:(b "lost") ~payload:(b "2");
  (* ...interleaved with a later batch that does commit. *)
  let b3 = Journal.begin_batch j in
  Journal.log_insert j ~batch:b3 ~key:(b "c") ~payload:(b "3");
  Journal.log_delete j ~batch:b2 ~key:(b "a");
  Journal.commit j ~batch:b3;
  Alcotest.(check (list int)) "committed batches" [ 1; 3 ] (Journal.committed_batches j);
  let n_batches, ops = Journal.committed_ops j in
  Alcotest.(check int) "committed batch count" 2 n_batches;
  Alcotest.(check int) "b2's records filtered out" 2 (List.length ops);
  Alcotest.(check (list int)) "append order" [ 1; 3 ] (List.map fst ops)

(* {2 Serialization} *)

let test_roundtrip () =
  let rng = Prng.create 42L in
  let j = Journal.create () in
  for _ = 1 to 50 do
    let batch = Journal.begin_batch j in
    for _ = 1 to 1 + Prng.int rng 5 do
      let key = Bytes.init (1 + Prng.int rng 20) (fun _ -> Char.chr (Prng.int rng 256)) in
      if Prng.int rng 4 = 0 then Journal.log_delete j ~batch ~key
      else
        let payload = Bytes.init (Prng.int rng 30) (fun _ -> Char.chr (Prng.int rng 256)) in
        Journal.log_insert j ~batch ~key ~payload
    done;
    if Prng.int rng 3 > 0 then Journal.commit j ~batch
  done;
  let bytes = Journal.to_bytes j in
  let j2 = Journal.of_bytes bytes in
  Alcotest.(check int) "byte size" (Journal.byte_size j) (Journal.byte_size j2);
  Alcotest.(check int) "records" (Journal.record_count j) (Journal.record_count j2);
  Alcotest.(check int) "commits" (Journal.commit_count j) (Journal.commit_count j2);
  Alcotest.(check (list int))
    "committed batches" (Journal.committed_batches j) (Journal.committed_batches j2);
  List.iter2
    (fun (ba, oa) (bb, ob) ->
      Alcotest.(check int) "batch" ba bb;
      Alcotest.check op_testable "op" oa ob)
    (snd (Journal.committed_ops j))
    (snd (Journal.committed_ops j2));
  (* Batch ids resume after the highest id seen. *)
  Alcotest.(check int) "next batch resumes" (Journal.last_batch j + 1) (Journal.begin_batch j2);
  (* save/load = to_bytes/of_bytes through a file. *)
  let path = Filename.temp_file "pkj" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Journal.save j path;
      let j3 = Journal.load path in
      Alcotest.(check bytes) "file roundtrip" bytes (Journal.to_bytes j3))

let test_of_bytes_validation () =
  let reject name bytes =
    try
      ignore (Journal.of_bytes bytes);
      Alcotest.failf "%s accepted" name
    with Invalid_argument _ -> ()
  in
  reject "empty buffer" Bytes.empty;
  reject "bad magic" (b "XXXX");
  let j = Journal.create () in
  let batch = Journal.begin_batch j in
  Journal.log_insert j ~batch ~key:(b "key") ~payload:(b "payload");
  Journal.commit j ~batch;
  let good = Journal.to_bytes j in
  (* Unknown record tag. *)
  let bad = Bytes.copy good in
  Bytes.set bad 4 '\xee';
  reject "unknown tag" bad;
  (* Batch id 0 is invalid on the wire. *)
  let zero = Bytes.copy good in
  Bytes.fill zero 5 4 '\000';
  reject "zero batch id" zero

(* A crash mid-append tears the final record.  Cut a 3-batch journal at
   every byte offset: each cut must load, and its committed prefix must
   be exactly the ops of the batches whose commit record ends at or
   before the cut. *)
let test_torn_tail () =
  let j = Journal.create () in
  let expected = ref [] (* (commit end offset, ops of the batch), newest first *) in
  List.iter
    (fun ops ->
      let batch = Journal.begin_batch j in
      List.iter
        (function
          | Journal.Insert { key; payload } -> Journal.log_insert j ~batch ~key ~payload
          | Journal.Delete { key } -> Journal.log_delete j ~batch ~key)
        ops;
      Journal.commit j ~batch;
      expected := (Journal.byte_size j, List.map (fun op -> (batch, op)) ops) :: !expected)
    [
      [
        Journal.Insert { key = b "alpha"; payload = b "1" };
        Journal.Insert { key = b "beta"; payload = b "" };
      ];
      [ Journal.Delete { key = b "alpha" } ];
      [ Journal.Insert { key = b "gamma"; payload = b "333" }; Journal.Delete { key = b "beta" } ];
    ];
  let full = Journal.to_bytes j in
  let starts = ref [] in
  Journal.iter_records j (fun ~off ~batch:_ _ -> starts := off :: !starts);
  let boundaries = Journal.byte_size j :: !starts in
  for cut = 0 to Journal.byte_size j do
    let torn = Journal.of_bytes (Bytes.sub full 0 (4 + cut)) in
    let want =
      List.concat_map snd (List.rev (List.filter (fun (ends, _) -> ends <= cut) !expected))
    in
    Alcotest.(check (list (pair int op_testable)))
      (Printf.sprintf "committed prefix at cut %d" cut)
      want
      (snd (Journal.committed_ops torn));
    (* the torn tail is dropped: appends resume right after the last
       complete record *)
    Alcotest.(check int)
      (Printf.sprintf "resumes after the last complete record, cut %d" cut)
      (List.fold_left (fun acc e -> if e <= cut then max acc e else acc) 0 boundaries)
      (Journal.byte_size torn);
    Alcotest.(check int)
      (Printf.sprintf "torn_bytes at cut %d" cut)
      (cut - Journal.byte_size torn) (Journal.torn_bytes torn)
  done

(* {2 End-to-end recovery} *)

let test_recover_roundtrip () =
  let key_len = 10 in
  List.iter
    (fun tag ->
      let mem, records = Support.make_env () in
      let journal = Journal.create () in
      let live =
        Index.journaled journal records (Index.Registry.build ~key_len tag mem records)
      in
      let rng = Prng.create 7L in
      let keys = Keygen.uniform ~rng ~key_len ~alphabet:16 400 in
      (* Bulk-load half through of_sorted, then singles, batches and
         deletes — all journaled. *)
      let bulk = Array.sub (Array.copy keys) 0 200 in
      Array.sort Key.compare bulk;
      let entries =
        Array.map
          (fun k -> (k, Record_store.insert records ~key:k ~payload:(b (Key.to_hex k))))
          bulk
      in
      live.Index.of_sorted ~fill:0.8 entries;
      Array.iter
        (fun k ->
          let rid = Record_store.insert records ~key:k ~payload:(b (Key.to_hex k)) in
          ignore (live.Index.insert k ~rid))
        (Array.sub keys 200 150);
      let batch_keys = Array.sub keys 350 50 in
      let rids =
        Array.map
          (fun k -> Record_store.insert records ~key:k ~payload:(b (Key.to_hex k)))
          batch_keys
      in
      ignore (live.Index.insert_batch batch_keys ~rids);
      (* Delete a slice; the journal must replay the deletes too. *)
      Array.iter (fun k -> ignore (live.Index.delete k)) (Array.sub keys 100 60);
      (* An aborted mutation must leave no committed trace. *)
      (try
         ignore (live.Index.insert_batch (Array.sub keys 0 3) ~rids:[| 1 |])
       with Invalid_argument _ -> ());
      let expect = ref [] in
      live.Index.iter (fun ~key ~rid:_ -> expect := key :: !expect);
      let expect = List.rev !expect in
      (* Crash: serialize, drop everything, recover from bytes alone. *)
      let frozen = Journal.of_bytes (Journal.to_bytes journal) in
      let _mem2, records2, recovered, stats =
        Index.recover ~key_len ~tag frozen
      in
      Alcotest.(check int)
        (tag ^ ": recovered count") (List.length expect)
        (recovered.Index.count ());
      Alcotest.(check int)
        (tag ^ ": store count") (List.length expect) (Record_store.count records2);
      let got = ref [] in
      recovered.Index.iter (fun ~key ~rid -> got := (key, rid) :: !got);
      List.iter2
        (fun want (key, rid) ->
          if not (Key.equal want key) then
            Alcotest.failf "%s: recovered key %s, want %s" tag (Key.to_hex key)
              (Key.to_hex want);
          let payload = Record_store.read_payload records2 rid in
          Alcotest.(check string)
            (tag ^ ": payload") (Key.to_hex want) (Bytes.to_string payload))
        expect (List.rev !got);
      if stats.Engine.rec_ops <= 0 then Alcotest.fail "no ops replayed";
      if stats.Engine.rec_bulk + stats.Engine.rec_tail < List.length expect then
        Alcotest.failf "%s: bulk %d + tail %d < live %d" tag stats.Engine.rec_bulk
          stats.Engine.rec_tail (List.length expect);
      recovered.Index.validate ())
    [ "B-direct"; "pkB"; "T-indirect"; "B+/prefix" ]

let test_recover_empty_and_tail_only () =
  (* Empty journal -> empty index. *)
  let j = Journal.create () in
  let _, _, ix, stats = Index.recover ~key_len:8 ~tag:"B-direct" j in
  Alcotest.(check int) "empty count" 0 (ix.Index.count ());
  Alcotest.(check int) "empty batches" 0 stats.Pk_core.Engine.rec_batches;
  (* A single committed batch goes through the incremental tail path
     (there is no "all but the last" prefix to bulk-load). *)
  let j = Journal.create () in
  let batch = Journal.begin_batch j in
  Journal.log_insert j ~batch ~key:(b "k1-quite-") ~payload:(b "p1");
  Journal.log_insert j ~batch ~key:(b "k2-quite-") ~payload:(b "p2");
  Journal.log_delete j ~batch ~key:(b "k1-quite-");
  Journal.commit j ~batch;
  (* And one uncommitted straggler that must be discarded. *)
  let dead = Journal.begin_batch j in
  Journal.log_insert j ~batch:dead ~key:(b "k3-quite-") ~payload:(b "p3");
  let _, records, ix, stats = Index.recover ~key_len:9 ~tag:"T-direct" j in
  Alcotest.(check int) "count" 1 (ix.Index.count ());
  Alcotest.(check int) "bulk" 0 stats.Pk_core.Engine.rec_bulk;
  Alcotest.(check int) "tail" 3 stats.Pk_core.Engine.rec_tail;
  Alcotest.(check int) "skipped" 1 stats.Pk_core.Engine.rec_skipped;
  match ix.Index.lookup (b "k2-quite-") with
  | None -> Alcotest.fail "k2 lost"
  | Some rid ->
      Alcotest.(check string) "payload" "p2"
        (Bytes.to_string (Record_store.read_payload records rid))

(* The bulk-prefix fold (every batch but the last) through packed-prefix
   collisions: first insert wins over a repeat, a delete clears and a
   re-insert restores, a delete of an absent key is a no-op, keys equal
   on their first 7 bytes and ["x"] / ["x\000"] (equal once zero-padded)
   are told apart by the full key; the final 1-op batch is the tail. *)
let test_recover_bulk_prefix () =
  let j = Journal.create () in
  let batch ops =
    let batch = Journal.begin_batch j in
    List.iter
      (function
        | `Ins (k, p) -> Journal.log_insert j ~batch ~key:(b k) ~payload:(b p)
        | `Del k -> Journal.log_delete j ~batch ~key:(b k))
      ops;
    Journal.commit j ~batch
  in
  batch [ `Ins ("dup-key", "p1") ];
  batch [ `Ins ("dup-key", "p2") ];
  batch [ `Ins ("re-insert", "pa"); `Del "re-insert" ];
  batch [ `Ins ("re-insert", "p3"); `Del "absent-key" ];
  batch [ `Ins ("collideB", "pB"); `Ins ("collideA", "pA") ];
  batch [ `Ins ("x\000", "px0"); `Ins ("x", "px") ];
  batch [ `Ins ("tail-key", "pt") ];
  let _, records, ix, stats = Index.recover ~key_len:8 ~tag:"pkB" j in
  let want =
    [
      ("collideA", "pA");
      ("collideB", "pB");
      ("dup-key", "p1");
      ("re-insert", "p3");
      ("tail-key", "pt");
      ("x", "px");
      ("x\000", "px0");
    ]
  in
  let got = ref [] in
  ix.Index.iter (fun ~key ~rid ->
      got := (Bytes.to_string key, Bytes.to_string (Record_store.read_payload records rid)) :: !got);
  Alcotest.(check (list (pair string string))) "recovered content" want (List.rev !got);
  Alcotest.(check int) "count" 7 (ix.Index.count ());
  Alcotest.(check int) "batches" 7 stats.Engine.rec_batches;
  Alcotest.(check int) "ops" 11 stats.Engine.rec_ops;
  Alcotest.(check int) "bulk" 6 stats.Engine.rec_bulk;
  Alcotest.(check int) "tail" 1 stats.Engine.rec_tail

(* Satellite of the rebuild pipeline: recovery bulk-loads through
   [of_sorted ~gap], so a freshly recovered tree keeps per-leaf slack
   and absorbs a sparse tail of inserts in place.  The contrast run at
   gap 0.0 (leaves packed full) proves the assertion has teeth: the
   same tail must split there. *)
let test_recover_gapped_no_split () =
  let key_len = 12 in
  let mem, records = Support.make_env () in
  let journal = Journal.create () in
  let live =
    Index.journaled journal records (Index.Registry.build ~key_len "B-direct" mem records)
  in
  let pool = Support.sorted_keys ~seed:11 ~key_len ~alphabet:16 800 in
  Array.iteri
    (fun i k ->
      if i mod 2 = 0 then begin
        let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
        ignore (live.Index.insert k ~rid)
      end)
    pool;
  let frozen = Journal.of_bytes (Journal.to_bytes journal) in
  let check ~gap ~expect_splits =
    let _, records2, ix, _ = Index.recover ~gap ~key_len ~tag:"B-direct" frozen in
    let before = ix.Index.node_count () in
    (* A sparse tail: odd keys (absent, adjacent to residents) at a
       stride wide enough that each lands in a distinct leaf. *)
    Array.iteri
      (fun i k ->
        if i mod 40 = 1 then begin
          let rid = Record_store.insert records2 ~key:k ~payload:Bytes.empty in
          if not (ix.Index.insert k ~rid) then Alcotest.fail "tail insert rejected"
        end)
      pool;
    ix.Index.validate ();
    let after = ix.Index.node_count () in
    if expect_splits then begin
      if after <= before then
        Alcotest.failf "gap %.2f: expected splits, nodes %d -> %d" gap before after
    end
    else if after <> before then
      Alcotest.failf "gap %.2f: tail inserts split the tree, nodes %d -> %d" gap before after
  in
  check ~gap:0.1 ~expect_splits:false;
  check ~gap:0.0 ~expect_splits:true

let () =
  Alcotest.run "journal"
    [
      ( "framing",
        [
          Alcotest.test_case "append and account" `Quick test_framing;
          Alcotest.test_case "committed prefix" `Quick test_committed_prefix;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "of_bytes validation" `Quick test_of_bytes_validation;
          Alcotest.test_case "torn tail at every byte offset" `Quick test_torn_tail;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "journaled index roundtrip" `Quick test_recover_roundtrip;
          Alcotest.test_case "empty and tail-only" `Quick test_recover_empty_and_tail_only;
          Alcotest.test_case "bulk prefix through packed-prefix collisions" `Quick
            test_recover_bulk_prefix;
          Alcotest.test_case "gapped recovery absorbs tail inserts" `Quick
            test_recover_gapped_no_split;
        ] );
    ]
