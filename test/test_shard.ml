(* Sharded engine: partitioner unit tests, sharded-vs-flat equivalence
   across every registered scheme, per-shard counter plumbing, the
   optimistic validated-read protocol (restarts and their backoff
   schedule included), snapshot isolation over the aggregate, and a
   writer-vs-readers domain smoke. *)

module Key = Pk_keys.Key
module Mem = Pk_mem.Mem
module Record_store = Pk_records.Record_store
module Index = Pk_core.Index
module Obs = Pk_obs.Obs
module Shard = Pk_core.Shard

let flat_tags () =
  List.filter
    (fun tag -> not (String.length tag >= 8 && String.sub tag 0 8 = "sharded:"))
    (Index.Registry.tags ())

let key_len = 10
let alphabet = 6
let payload = Bytes.of_string "payload"

(* Distinct keys that can never collide with the [alphabet]-generated
   population ('a'-based): a 'z'/'y'/... first byte. *)
let foreign_key i =
  let k = Bytes.make key_len 'z' in
  Bytes.set k 1 (Char.chr (Char.code 'a' + (i mod 26)));
  Bytes.set k 2 (Char.chr (Char.code 'a' + (i / 26 mod 26)));
  k

(* {2 Partition} *)

let test_partition () =
  let p = Shard.Partition.hash 4 in
  Alcotest.(check int) "hash shards" 4 (Shard.Partition.shards p);
  let keys = Support.sorted_keys ~seed:1 ~key_len ~alphabet 512 in
  let seen = Array.make 4 0 in
  Array.iter
    (fun k ->
      let r = Shard.Partition.route p k in
      Alcotest.(check bool) "in range" true (r >= 0 && r < 4);
      (* routing is a pure function of the key *)
      Alcotest.(check int) "stable" r (Shard.Partition.route p k);
      seen.(r) <- seen.(r) + 1)
    keys;
  Array.iteri
    (fun i c -> if c = 0 then Alcotest.failf "hash shard %d empty over 512 keys" i)
    seen;
  let splits = [| Bytes.of_string "d"; Bytes.of_string "m" |] in
  let r = Shard.Partition.range splits in
  Alcotest.(check int) "range shards" 3 (Shard.Partition.shards r);
  Alcotest.(check int) "below first split" 0 (Shard.Partition.route r (Bytes.of_string "crab"));
  Alcotest.(check int) "at a split" 1 (Shard.Partition.route r (Bytes.of_string "d"));
  Alcotest.(check int) "between" 1 (Shard.Partition.route r (Bytes.of_string "lemon"));
  Alcotest.(check int) "top shard" 2 (Shard.Partition.route r (Bytes.of_string "zebra"));
  Alcotest.check_raises "empty splits" (Invalid_argument "Partition.range: need at least one split key")
    (fun () -> ignore (Shard.Partition.range [||]));
  Alcotest.check_raises "descending splits"
    (Invalid_argument "Partition.range: split keys must be strictly ascending") (fun () ->
      ignore (Shard.Partition.range [| Bytes.of_string "m"; Bytes.of_string "d" |]))

(* {2 Sharded vs flat equivalence} *)

(* Drive a flat and a sharded build of the same base scheme through an
   identical script; every observable answer must agree. *)
let equivalence_script base =
  let build_flat mem records = Index.Registry.build ~key_len base mem records in
  let build_sharded mem records =
    Shard.Engine.create ~tag:("eq/" ^ base)
      ~partition:(Shard.Partition.hash 3)
      (fun _ -> Index.Registry.build ~key_len base mem records)
  in
  let mem_f, records_f = Support.make_env () in
  let mem_s, records_s = Support.make_env () in
  let flat = build_flat mem_f records_f in
  let eng = build_sharded mem_s records_s in
  let shd = Shard.Engine.ops eng in
  let keys = Support.sorted_keys ~seed:42 ~key_len ~alphabet 600 in
  let n = Array.length keys in
  let n_bulk = 400 in
  let rid_of records k = Record_store.insert records ~key:k ~payload in
  (* bulk load the common prefix *)
  let entries records =
    Array.map (fun k -> (k, rid_of records k)) (Array.sub keys 0 n_bulk)
  in
  flat.Index.of_sorted ~fill:0.85 (entries records_f);
  shd.Index.of_sorted ~fill:0.85 (entries records_s);
  (* incremental inserts for the rest, shuffled *)
  let tail = Support.shuffled ~seed:7 (Array.sub keys n_bulk (n - n_bulk)) in
  Array.iter
    (fun k ->
      let rf = flat.Index.insert k ~rid:(rid_of records_f k) in
      let rs = shd.Index.insert k ~rid:(rid_of records_s k) in
      Alcotest.(check bool) "insert agrees" rf rs)
    tail;
  (* duplicate inserts are rejected identically *)
  Array.iter
    (fun k ->
      Alcotest.(check bool)
        "dup insert agrees"
        (flat.Index.insert k ~rid:(rid_of records_f k))
        (shd.Index.insert k ~rid:(rid_of records_s k)))
    (Array.sub keys 0 8);
  Alcotest.(check int) "count agrees" (flat.Index.count ()) (shd.Index.count ());
  (* point lookups: hits and misses *)
  Array.iter
    (fun k ->
      Alcotest.(check (option int)) "lookup agrees" (flat.Index.lookup k) (shd.Index.lookup k))
    (Support.shuffled ~seed:9 keys);
  for i = 0 to 19 do
    let k = foreign_key i in
    Alcotest.(check (option int)) "miss agrees" (flat.Index.lookup k) (shd.Index.lookup k)
  done;
  (* batched lookups in caller order *)
  let probes = Array.append (Support.shuffled ~seed:11 keys) (Array.init 16 foreign_key) in
  let n = Array.length probes in
  let bf = Array.make n 0 and bs = Array.make n 0 in
  flat.Index.lookup_into probes bf;
  shd.Index.lookup_into probes bs;
  Array.iteri (fun i r -> Alcotest.(check int) "batch slot agrees" r bs.(i)) bf;
  (* range over a window *)
  let collect ix =
    let acc = ref [] in
    ix.Index.range ~lo:keys.(50) ~hi:keys.(449) (fun ~key ~rid -> acc := (key, rid) :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list (pair Support.key_testable int)))
    "range agrees" (collect flat) (collect shd);
  (* full iteration is the same ascending sequence *)
  let drain ix =
    let acc = ref [] in
    ix.Index.iter (fun ~key ~rid -> acc := (key, rid) :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list (pair Support.key_testable int))) "iter agrees" (drain flat) (drain shd);
  (* cursor from an interior key *)
  let cursor ix = List.of_seq (Seq.take 40 (ix.Index.seq_from keys.(123))) in
  Alcotest.(check (list (pair Support.key_testable int)))
    "seq_from agrees" (cursor flat) (cursor shd);
  (* deletes: every third key, then misses *)
  Array.iteri
    (fun i k ->
      if i mod 3 = 0 then
        Alcotest.(check bool) "delete agrees" (flat.Index.delete k) (shd.Index.delete k))
    (Support.shuffled ~seed:13 keys);
  for i = 0 to 7 do
    let k = foreign_key i in
    Alcotest.(check bool) "delete miss agrees" (flat.Index.delete k) (shd.Index.delete k)
  done;
  Alcotest.(check int) "count after deletes" (flat.Index.count ()) (shd.Index.count ());
  Alcotest.(check (list (pair Support.key_testable int)))
    "iter after deletes" (drain flat) (drain shd);
  flat.Index.validate ();
  shd.Index.validate ();
  (* aggregate counters are exactly the per-shard sums *)
  let sub_sum f =
    let acc = ref 0 in
    for i = 0 to Shard.Engine.shard_count eng - 1 do
      acc := !acc + f (Shard.Engine.sub eng i)
    done;
    !acc
  in
  Alcotest.(check int)
    "deref_count is the per-shard sum"
    (sub_sum (fun ix -> ix.Index.deref_count ()))
    (shd.Index.deref_count ());
  Alcotest.(check int)
    "node_visits is the per-shard sum"
    (sub_sum (fun ix -> ix.Index.node_visits ()))
    (shd.Index.node_visits ());
  Alcotest.(check int)
    "count is the per-shard sum"
    (sub_sum (fun ix -> ix.Index.count ()))
    (shd.Index.count ())

let equivalence_cases () =
  List.map
    (fun base ->
      Alcotest.test_case ("sharded = flat: " ^ base) `Quick (fun () -> equivalence_script base))
    (flat_tags ())

(* {2 Registry-driven conformance (model-based)} *)

let conformance_cases () =
  List.map
    (fun tag ->
      Alcotest.test_case ("conformance: " ^ tag) `Quick (fun () ->
          Support.conformance_run
            ~make_index:(fun mem records -> Index.Registry.build ~key_len tag mem records)
            ~key_len ~alphabet ~n_keys:260 ~n_ops:1300 ~seed:23 ()))
    (List.filter
       (fun tag -> String.length tag >= 8 && String.sub tag 0 8 = "sharded:")
       (Index.Registry.tags ()))

(* {2 Optimistic validated reads} *)

let make_engine ?(shards = 4) ?(tag = "rd/pkB") () =
  let mem, records = Support.make_env () in
  let eng =
    Shard.Engine.create ~tag
      ~partition:(Shard.Partition.hash shards)
      (fun _ -> Index.Registry.build ~key_len "pkB" mem records)
  in
  (mem, records, eng)

let load eng records keys =
  let ops = Shard.Engine.ops eng in
  let entries = Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload)) keys in
  ops.Index.of_sorted ~fill:0.9 entries;
  (ops, entries)

let test_reader_protocol () =
  let _mem, records, eng = make_engine () in
  let keys = Support.sorted_keys ~seed:5 ~key_len ~alphabet 400 in
  let ops, entries = load eng records keys in
  let restarts_series =
    Obs.Counter.register Obs.Registry.default "pk_lock_restarts_total{index=\"rd/pkB\"}"
  in
  let before = Obs.Counter.value restarts_series in
  let rd = Shard.Engine.reader ~seed:3 eng in
  (* quiescent: every read validates on the pinned epochs, no restarts *)
  Array.iter
    (fun (k, rid) ->
      Alcotest.(check (option int)) "validated read" (Some rid) (Shard.Engine.read rd k))
    entries;
  Alcotest.(check int) "no restarts while quiescent" 0 (Shard.Engine.restarts rd);
  (* a committed mutation makes the next read of that shard restart,
     re-pin, and observe the new state *)
  let knew = foreign_key 0 in
  let rid_new = Record_store.insert records ~key:knew ~payload in
  Alcotest.(check bool) "insert" true (ops.Index.insert knew ~rid:rid_new);
  Alcotest.(check (option int)) "fresh read sees the insert" (Some rid_new)
    (Shard.Engine.read rd knew);
  Alcotest.(check bool) "restarted at least once" true (Shard.Engine.restarts rd >= 1);
  (* ... and the restart is visible in the shared series *)
  Alcotest.(check bool) "pk_lock_restarts_total grew" true
    (Obs.Counter.value restarts_series > before);
  (* unaffected shards keep serving from their pinned epochs *)
  let shard_new = Shard.Engine.route eng knew in
  let r0 = Shard.Engine.restarts rd in
  Array.iter
    (fun (k, rid) ->
      if Shard.Engine.route eng k <> shard_new then
        Alcotest.(check (option int)) "other shards undisturbed" (Some rid)
          (Shard.Engine.read rd k))
    entries;
  Alcotest.(check int) "no extra restarts on other shards" r0 (Shard.Engine.restarts rd);
  (* deletion: restart then absence *)
  Alcotest.(check bool) "delete" true (ops.Index.delete knew);
  Alcotest.(check (option int)) "read after delete" None (Shard.Engine.read rd knew);
  Alcotest.(check bool) "restarted again" true (Shard.Engine.restarts rd > r0);
  Shard.Engine.release_reader rd;
  (* a released reader re-pins transparently *)
  let k0, rid0 = entries.(0) in
  Alcotest.(check (option int)) "read after release" (Some rid0) (Shard.Engine.read rd k0);
  Shard.Engine.release_reader rd

(* The restart backoff schedule: every pause lies within +/- 50% of
   the capped exponential min (1 ms * 2^(a-1), 100 ms), so the mean
   pause doubles per attempt until the cap holds it. *)
let backoff_schedule seed =
  let rng = Pk_util.Prng.create (Int64.of_int seed) in
  List.init 10 (fun a -> Shard.Engine.backoff_pause rng ~attempt:(a + 1))

let test_backoff_schedule () =
  List.iter
    (fun seed ->
      List.iteri
        (fun i got ->
          let pure = Float.min (0.001 *. (2.0 ** float_of_int i)) 0.1 in
          if not (got >= (pure *. 0.5) -. 1e-12 && got <= (pure *. 1.5) +. 1e-12) then
            Alcotest.failf "seed %d, attempt %d: pause %g outside +/- 50%% of %g" seed (i + 1)
              got pure)
        (backoff_schedule seed))
    [ 0; 9; 10; 77 ]

(* The jitter is drawn from the reader's seeded PRNG: the same seed
   replays the same pauses, another seed draws others. *)
let test_jitter_seeded () =
  let a = backoff_schedule 9 and b = backoff_schedule 9 and c = backoff_schedule 10 in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different schedule" true (List.exists2 ( <> ) a c)

(* {2 Snapshot isolation over the aggregate} *)

let test_sharded_snapshot () =
  let _mem, records, eng = make_engine ~tag:"snap/pkB" () in
  let keys = Support.sorted_keys ~seed:8 ~key_len ~alphabet 300 in
  let ops, entries = load eng records keys in
  let snap = ops.Index.snapshot () in
  Alcotest.(check string) "snap tag" "snap/pkB@snap" snap.Index.tag;
  let k0, rid0 = entries.(0) in
  let knew = foreign_key 1 in
  let rid_new = Record_store.insert records ~key:knew ~payload in
  Alcotest.(check bool) "live insert" true (ops.Index.insert knew ~rid:rid_new);
  Alcotest.(check bool) "live delete" true (ops.Index.delete k0);
  (* the pinned epoch still serves the pre-mutation state *)
  Alcotest.(check (option int)) "snap keeps deleted key" (Some rid0) (snap.Index.lookup k0);
  Alcotest.(check (option int)) "snap misses new key" None (snap.Index.lookup knew);
  Alcotest.(check int) "snap count" (Array.length keys) (snap.Index.count ());
  (* while the live aggregate serves the new state *)
  Alcotest.(check (option int)) "live sees insert" (Some rid_new) (ops.Index.lookup knew);
  Alcotest.(check (option int)) "live dropped delete" None (ops.Index.lookup k0);
  snap.Index.validate ();
  (match snap.Index.insert k0 ~rid:rid0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "snapshot insert should raise");
  (match snap.Index.snapshot () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "snapshotting a snapshot should raise");
  snap.Index.release ();
  match snap.Index.release () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double release should raise"

(* {2 Domain fan-out and writer-vs-readers smoke} *)

let test_lookup_into_domains () =
  let _mem, records, eng = make_engine ~shards:4 ~tag:"dom/pkB" () in
  let keys = Support.sorted_keys ~seed:12 ~key_len ~alphabet 500 in
  let ops, _ = load eng records keys in
  let probes = Array.append (Support.shuffled ~seed:2 keys) (Array.init 20 foreign_key) in
  let want = Array.make (Array.length probes) (-2) in
  ops.Index.lookup_into probes want;
  List.iter
    (fun domains ->
      let got = Array.make (Array.length probes) (-2) in
      Shard.Engine.lookup_into_domains eng ~domains probes got;
      Array.iteri
        (fun i w ->
          if got.(i) <> w then
            Alcotest.failf "domains=%d slot %d: %d <> %d" domains i got.(i) w)
        want)
    [ 1; 2; 4 ]

let test_concurrent_readers () =
  let _mem, records, eng = make_engine ~shards:4 ~tag:"mt/pkB" () in
  let keys = Support.sorted_keys ~seed:21 ~key_len ~alphabet 400 in
  let ops, entries = load eng records keys in
  let stop = Atomic.make false in
  let spawn_reader seed =
    Domain.spawn (fun () ->
        let rd = Shard.Engine.reader ~seed eng in
        let bad = ref [] in
        let reads = ref 0 in
        let n = Array.length entries in
        let i = ref 0 in
        while not (Atomic.get stop) do
          let k, rid = entries.(!i mod n) in
          (match Shard.Engine.read rd k with
          | Some r when r = rid -> ()
          | got ->
              bad :=
                Printf.sprintf "key %s: got %s, want %d" (Key.to_hex k)
                  (match got with Some r -> string_of_int r | None -> "None")
                  rid
                :: !bad);
          incr reads;
          incr i
        done;
        let restarts = Shard.Engine.restarts rd in
        Shard.Engine.release_reader rd;
        (!reads, restarts, !bad))
  in
  let readers = [ spawn_reader 101; spawn_reader 202 ] in
  (* the writer churns foreign keys only: the frozen population the
     readers check is never touched *)
  for round = 1 to 400 do
    let k = foreign_key round in
    let rid = Shard.Engine.record_write eng (fun () -> Record_store.insert records ~key:k ~payload) in
    ignore (ops.Index.insert k ~rid : bool);
    ignore (ops.Index.delete k : bool)
  done;
  Atomic.set stop true;
  let results = List.map Domain.join readers in
  List.iter
    (fun (reads, _restarts, bad) ->
      if reads = 0 then Alcotest.fail "reader made no progress";
      match bad with
      | [] -> ()
      | e :: _ -> Alcotest.failf "%d bad reads, first: %s" (List.length bad) e)
    results;
  ops.Index.validate ();
  Alcotest.(check int) "final count" (Array.length keys) (ops.Index.count ())

let () =
  Alcotest.run "shard"
    [
      ("partition", [ Alcotest.test_case "routing" `Quick test_partition ]);
      ("equivalence", equivalence_cases ());
      ("conformance", conformance_cases ());
      ( "optimistic-reads",
        [
          Alcotest.test_case "validated read protocol" `Quick test_reader_protocol;
          Alcotest.test_case "snapshot isolation" `Quick test_sharded_snapshot;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "jitter is seeded" `Quick test_jitter_seeded;
        ] );
      ( "domains",
        [
          Alcotest.test_case "lookup_into_domains" `Quick test_lookup_into_domains;
          Alcotest.test_case "writer vs readers" `Quick test_concurrent_readers;
        ] );
    ]
