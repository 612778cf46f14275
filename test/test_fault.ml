(* Tests for the fault-injection registry and the exception-safety of
   the index maintenance paths: an injected fault mid-split /
   mid-rotation / mid-merge must leave the tree exactly as it was, deep
   validation included. *)

module Fault = Pk_fault.Fault
module Prng = Pk_util.Prng
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Mem = Pk_mem.Mem
module Record_store = Pk_records.Record_store
module Index = Pk_core.Index
module Layout = Pk_core.Layout
module Partial_key = Pk_partialkey.Partial_key

let with_clean_registry f =
  Fault.reset ~seed:0 ();
  Fun.protect ~finally:(fun () -> Fault.reset ()) f

(* {1 Registry semantics} *)

let test_every_nth () =
  with_clean_registry @@ fun () ->
  Fault.arm "x" (Fault.Every_nth 3);
  let fired = ref [] in
  for i = 1 to 10 do
    try Fault.point "x" with Fault.Injected "x" -> fired := i :: !fired
  done;
  Alcotest.(check (list int)) "fires on hits 3, 6, 9" [ 3; 6; 9 ] (List.rev !fired);
  Alcotest.(check int) "hits counted" 10 (Fault.hits "x");
  Alcotest.(check int) "injections counted" 3 (Fault.injections "x");
  Alcotest.(check int) "total" 3 (Fault.total_injections ())

let test_one_shot () =
  with_clean_registry @@ fun () ->
  Fault.arm "y" (Fault.One_shot 4);
  let fired = ref [] in
  for i = 1 to 10 do
    try Fault.point "y" with Fault.Injected "y" -> fired := i :: !fired
  done;
  Alcotest.(check (list int)) "fires exactly once, on hit 4" [ 4 ] (List.rev !fired);
  Alcotest.(check bool) "site disarmed itself" false (Fault.armed ())

let prob_run seed =
  Fault.reset ~seed ();
  Fault.arm "p" (Fault.Probability 0.3);
  let fired = ref [] in
  for i = 1 to 200 do
    try Fault.point "p" with Fault.Injected "p" -> fired := i :: !fired
  done;
  let r = List.rev !fired in
  Fault.reset ();
  r

let test_probability_deterministic () =
  let a = prob_run 7 and b = prob_run 7 and c = prob_run 8 in
  Alcotest.(check bool) "same seed, same firings" true (a = b);
  let n = List.length a in
  Alcotest.(check bool) "rate plausible for p=0.3" true (n > 20 && n < 120);
  Alcotest.(check bool) "different seed, different firings" true (a <> c)

let test_pause () =
  with_clean_registry @@ fun () ->
  Fault.arm "z" (Fault.Every_nth 1);
  Fault.pause (fun () -> Fault.point "z");
  Alcotest.(check int) "paused hit not counted" 0 (Fault.hits "z");
  Alcotest.(check bool) "armed reports false under pause" false (Fault.pause Fault.armed);
  Alcotest.(check bool) "armed again after pause" true (Fault.armed ());
  Alcotest.check_raises "fires once unpaused" (Fault.Injected "z") (fun () -> Fault.point "z");
  (* pause restores even when the thunk raises *)
  (try Fault.pause (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "pause unwinds on exception" true (Fault.armed ())

let test_arm_validation () =
  with_clean_registry @@ fun () ->
  Alcotest.check_raises "zero period" (Invalid_argument "Fault.arm: Every_nth needs n >= 1")
    (fun () -> Fault.arm "a" (Fault.Every_nth 0));
  Alcotest.check_raises "zero shot" (Invalid_argument "Fault.arm: One_shot needs k >= 1")
    (fun () -> Fault.arm "a" (Fault.One_shot 0));
  Alcotest.check_raises "p > 1" (Invalid_argument "Fault.arm: Probability needs p in [0, 1]")
    (fun () -> Fault.arm "a" (Fault.Probability 1.5))

let test_disarm_and_sites () =
  with_clean_registry @@ fun () ->
  Fault.arm "a" (Fault.Every_nth 1);
  Fault.arm "b" (Fault.Every_nth 2);
  (try Fault.point "a" with Fault.Injected _ -> ());
  Fault.point "b";
  Fault.disarm "a";
  Fault.point "a" (* no longer raises *);
  Alcotest.(check bool) "b still armed" true (Fault.armed ());
  Fault.disarm_all ();
  Alcotest.(check bool) "nothing armed" false (Fault.armed ());
  match Fault.sites () with
  | [ ("a", ha, ia); ("b", hb, ib) ] ->
      Alcotest.(check bool) "a accounting" true (ha >= 2 && ia = 1);
      Alcotest.(check bool) "b accounting" true (hb = 1 && ib = 0)
  | l -> Alcotest.failf "unexpected sites list (%d entries)" (List.length l)

(* {1 Unwind of maintenance paths}

   Generic driver: run inserts (or deletes) against a fresh index with
   one site armed; when the injection lands, the operation must have
   been a perfect no-op — deep validation passes, the key population is
   exactly what it was — and retrying after disarm must succeed. *)

let env () =
  let mem = Mem.create () in
  let records = Record_store.create mem in
  (mem, records)

let keys_for ~seed ~n =
  let rng = Prng.create (Int64.of_int seed) in
  Keygen.uniform ~rng ~key_len:12 ~alphabet:64 n

let check_insert_unwind ~make_index ~site ~sched ~seed () =
  let n = 400 in
  with_clean_registry @@ fun () ->
  let mem, records = env () in
  let ix : Index.t = make_index mem records in
  let keys = keys_for ~seed ~n in
  Fault.arm site sched;
  let inserted = ref [] in
  let faulted = ref None in
  (try
     Array.iter
       (fun key ->
         let rid =
           Fault.pause (fun () -> Record_store.insert records ~key ~payload:Bytes.empty)
         in
         match ix.Index.insert key ~rid with
         | true -> inserted := (key, rid) :: !inserted
         | false -> Fault.pause (fun () -> Record_store.delete records rid)
         | exception Fault.Injected s ->
             Fault.pause (fun () -> Record_store.delete records rid);
             faulted := Some (s, key);
             raise Exit)
       keys
   with Exit -> ());
  match !faulted with
  | None -> Alcotest.failf "site %s never fired across %d inserts" site n
  | Some (s, key) ->
      Fault.disarm_all ();
      Alcotest.(check string) "injection site" site s;
      ix.Index.validate ();
      Alcotest.(check int) "count unchanged by aborted insert" (List.length !inserted)
        (ix.Index.count ());
      Alcotest.(check bool) "aborted key absent" true (ix.Index.lookup key = None);
      List.iter
        (fun (key, rid) ->
          if ix.Index.lookup key <> Some rid then
            Alcotest.failf "key %s lost after unwind" (Key.to_hex key))
        !inserted;
      let rid = Record_store.insert records ~key ~payload:Bytes.empty in
      Alcotest.(check bool) "retry after disarm succeeds" true (ix.Index.insert key ~rid);
      ix.Index.validate ();
      Alcotest.(check int) "count after retry" (List.length !inserted + 1) (ix.Index.count ())

let check_delete_unwind ~make_index ~site ~sched ~seed () =
  let n = 400 in
  with_clean_registry @@ fun () ->
  let mem, records = env () in
  let ix : Index.t = make_index mem records in
  let keys = keys_for ~seed ~n in
  let live = Hashtbl.create n in
  Array.iter
    (fun key ->
      let rid = Record_store.insert records ~key ~payload:Bytes.empty in
      if ix.Index.insert key ~rid then Hashtbl.replace live key rid
      else Record_store.delete records rid)
    keys;
  Fault.arm site sched;
  let faulted = ref None in
  (try
     Array.iter
       (fun key ->
         if Hashtbl.mem live key then
           match ix.Index.delete key with
           | true ->
               Fault.pause (fun () -> Record_store.delete records (Hashtbl.find live key));
               Hashtbl.remove live key
           | false -> Alcotest.failf "delete of live key %s returned false" (Key.to_hex key)
           | exception Fault.Injected s ->
               faulted := Some (s, key);
               raise Exit)
       keys
   with Exit -> ());
  match !faulted with
  | None -> Alcotest.failf "site %s never fired across %d deletes" site n
  | Some (s, key) ->
      Fault.disarm_all ();
      Alcotest.(check string) "injection site" site s;
      ix.Index.validate ();
      Alcotest.(check int) "count unchanged by aborted delete" (Hashtbl.length live)
        (ix.Index.count ());
      Alcotest.(check bool) "aborted delete left key in place" true
        (ix.Index.lookup key = Some (Hashtbl.find live key));
      Alcotest.(check bool) "retry after disarm succeeds" true (ix.Index.delete key);
      ix.Index.validate ();
      Alcotest.(check int) "count after retry" (Hashtbl.length live - 1) (ix.Index.count ())

let direct = Layout.Direct { key_len = 12 }

let mk_btree mem records = Index.make ~node_bytes:128 Index.B_tree direct mem records
let mk_ttree mem records = Index.make ~node_bytes:128 Index.T_tree direct mem records

let mk_pkb mem records =
  Index.make ~node_bytes:128 Index.B_tree
    (Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 })
    mem records

let mk_pkt mem records =
  Index.make ~node_bytes:128 Index.T_tree
    (Layout.Partial { granularity = Partial_key.Bit; l_bytes = 2 })
    mem records

let mk_prefix mem records = Index.make_prefix_btree ~node_bytes:128 mem records

let one = Fault.One_shot 1

let unwind_cases =
  [
    (* Acceptance: allocation failure mid-split. The first unpaused
       arena allocation after index construction is the split's new
       node (record-store allocations run under [Fault.pause]). *)
    ("B-tree: alloc fails during split", check_insert_unwind ~make_index:mk_btree ~site:"arena.alloc" ~sched:one ~seed:11);
    ("B-tree: fault mid-split", check_insert_unwind ~make_index:mk_btree ~site:"btree.split.mid" ~sched:one ~seed:12);
    ("pkB: fault mid-split", check_insert_unwind ~make_index:mk_pkb ~site:"btree.split.mid" ~sched:one ~seed:13);
    (* Acceptance: fault mid-rotation. *)
    ("T-tree: fault mid-rotation", check_insert_unwind ~make_index:mk_ttree ~site:"ttree.rotate.mid" ~sched:one ~seed:14);
    ("pkT: fault mid-rotation", check_insert_unwind ~make_index:mk_pkt ~site:"ttree.rotate.mid" ~sched:one ~seed:15);
    ("T-tree: alloc fails on node grow", check_insert_unwind ~make_index:mk_ttree ~site:"arena.alloc" ~sched:one ~seed:16);
    ("prefix: fault mid-split", check_insert_unwind ~make_index:mk_prefix ~site:"prefix.split.mid" ~sched:one ~seed:17);
    ("prefix: alloc fails during split", check_insert_unwind ~make_index:mk_prefix ~site:"arena.alloc" ~sched:one ~seed:18);
    (* Read fault landing mid-insert (possibly inside split
       maintenance): everything the operation touched unwinds. *)
    ("B-tree: read fault mid-insert", check_insert_unwind ~make_index:mk_btree ~site:"mem.read" ~sched:(Fault.One_shot 2000) ~seed:23);
    ("pkB: read fault mid-insert", check_insert_unwind ~make_index:mk_pkb ~site:"mem.read" ~sched:(Fault.One_shot 2000) ~seed:24);
    (* Delete-side maintenance: merges and rebalances unwind too. *)
    ("B-tree: fault mid-merge", check_delete_unwind ~make_index:mk_btree ~site:"btree.merge.mid" ~sched:one ~seed:19);
    ("pkB: fault on borrow", check_delete_unwind ~make_index:mk_pkb ~site:"btree.borrow" ~sched:one ~seed:20);
    ("T-tree: fault on merge", check_delete_unwind ~make_index:mk_ttree ~site:"ttree.merge" ~sched:one ~seed:21);
    ("prefix: fault on merge", check_delete_unwind ~make_index:mk_prefix ~site:"prefix.merge" ~sched:one ~seed:22);
  ]

(* The comparison primitives thread the "mem.read" fault point:
   [compare_detail] used to bypass it (reads went straight to the
   arena), so read faults could never land in the in-node search. *)
let test_mem_read_compare () =
  with_clean_registry @@ fun () ->
  let mem = Mem.create () in
  let r = Mem.new_region mem ~name:"cmp" () in
  let off = Mem.alloc r 16 in
  Mem.write_bytes r ~off ~src:(Bytes.of_string "abcdefgh") ~src_off:0 ~len:8;
  Fault.arm "mem.read" (Fault.One_shot 1);
  Alcotest.check_raises "compare_detail hits mem.read" (Fault.Injected "mem.read") (fun () ->
      ignore (Mem.compare_detail r ~off ~len:8 (Bytes.of_string "abcd") ~key_off:0 ~key_len:4));
  Fault.arm "mem.read" (Fault.One_shot 1);
  Alcotest.check_raises "compare_sign hits mem.read" (Fault.Injected "mem.read") (fun () ->
      ignore (Mem.compare_sign r ~off ~len:8 (Bytes.of_string "abcd") ~key_off:0 ~key_len:4));
  Fault.disarm_all ();
  (* [arm] resets the counter, so only the second comparison is on it. *)
  Alcotest.(check int) "hit counted since re-arm" 1 (Fault.hits "mem.read")

(* A read fault mid-batch unwinds the whole batch (batch atomicity),
   and the batch succeeds verbatim on retry. *)
let test_batch_unwind () =
  with_clean_registry @@ fun () ->
  let mem, records = env () in
  let ix = mk_btree mem records in
  let keys = keys_for ~seed:44 ~n:220 in
  Array.iteri
    (fun i key ->
      if i < 100 then begin
        let rid = Record_store.insert records ~key ~payload:Bytes.empty in
        if not (ix.Index.insert key ~rid) then Record_store.delete records rid
      end)
    keys;
  let batch = Array.sub keys 100 120 in
  let rids = Array.map (fun key -> Record_store.insert records ~key ~payload:Bytes.empty) batch in
  let before = ix.Index.count () in
  Fault.arm "mem.read" (Fault.One_shot 500);
  (match ix.Index.insert_batch batch ~rids with
  | _ -> Alcotest.fail "batch completed despite armed read fault"
  | exception Fault.Injected "mem.read" -> ());
  Fault.disarm_all ();
  ix.Index.validate ();
  Alcotest.(check int) "whole batch unwound" before (ix.Index.count ());
  Array.iter
    (fun key ->
      if ix.Index.lookup key <> None then
        Alcotest.failf "partial batch visible: %s" (Key.to_hex key))
    batch;
  let res = ix.Index.insert_batch batch ~rids in
  Alcotest.(check bool) "retry inserts everything" true (Array.for_all Fun.id res);
  ix.Index.validate ();
  Alcotest.(check int) "count after retry" (before + Array.length batch) (ix.Index.count ())

(* Repeated injections at one site: every split attempt aborts until
   disarm, and the tree survives each one. *)
let test_repeated_injections () =
  with_clean_registry @@ fun () ->
  let mem, records = env () in
  let ix = mk_btree mem records in
  let keys = keys_for ~seed:33 ~n:500 in
  Fault.arm "btree.split" (Fault.Every_nth 2);
  let aborted = ref 0 and ok = ref 0 in
  Array.iter
    (fun key ->
      let rid =
        Fault.pause (fun () -> Record_store.insert records ~key ~payload:Bytes.empty)
      in
      match ix.Index.insert key ~rid with
      | true -> incr ok
      | false -> Fault.pause (fun () -> Record_store.delete records rid)
      | exception Fault.Injected _ ->
          incr aborted;
          Fault.pause (fun () ->
              Record_store.delete records rid;
              ix.Index.validate ()))
    keys;
  Fault.disarm_all ();
  ix.Index.validate ();
  Alcotest.(check bool) "several injections landed" true (!aborted > 10);
  Alcotest.(check int) "population matches survivors" !ok (ix.Index.count ())

(* {1 Fault-point parity}

   Every [Mem] access fires its fault point once, however the point
   and the accessors are compiled: with [mem.read] and [mem.write]
   armed by a schedule that never fires, a fixed pkB and pkT sequence
   of lookups, inserts and deletes must count exactly the pinned hits,
   and nothing may accrue once the sites are disarmed.  The pinned
   counts were measured with the out-of-line point and the
   byte-at-a-time scans; an inlining or a rewritten scan that dropped
   or added a point would move them.  A partial-key re-encode reads
   each of its two record keys with one length read and one window
   read. *)

let never = Fault.Every_nth max_int

let parity_hits make =
  with_clean_registry @@ fun () ->
  let mem, records = env () in
  let ix : Index.t = make mem records in
  let keys = keys_for ~seed:41 ~n:600 in
  let rids = Array.map (fun k -> Record_store.insert records ~key:k ~payload:Bytes.empty) keys in
  for i = 0 to 399 do
    ignore (ix.Index.insert keys.(i) ~rid:rids.(i) : bool)
  done;
  (* Run twice: inserts and deletes succeed the first time only. *)
  let sequence ~first =
    Array.iter (fun k -> ignore (ix.Index.lookup k : int option)) keys;
    let applied = ref 0 in
    for i = 400 to 599 do
      if ix.Index.insert keys.(i) ~rid:rids.(i) then incr applied
    done;
    for i = 0 to 199 do
      if ix.Index.delete keys.(i) then incr applied
    done;
    Alcotest.(check int) "inserts and deletes applied" (if first then 400 else 0) !applied
  in
  Fault.arm "mem.read" never;
  Fault.arm "mem.write" never;
  sequence ~first:true;
  let counted = (Fault.hits "mem.read", Fault.hits "mem.write") in
  Fault.disarm_all ();
  sequence ~first:false;
  Alcotest.(check (pair int int)) "nothing accrues while disarmed" counted
    (Fault.hits "mem.read", Fault.hits "mem.write");
  Alcotest.(check int) "no injection" 0 (Fault.total_injections ());
  ix.Index.validate ();
  counted

let test_point_parity () =
  List.iter
    (fun (name, make, want) ->
      Alcotest.(check (pair int int)) (name ^ " mem.read / mem.write hits") want (parity_hits make))
    [ ("pkB", mk_pkb, (62995, 2424)); ("pkT", mk_pkt, (107656, 2663)) ]

let () =
  Alcotest.run "pk_fault"
    [
      ( "registry",
        [
          Alcotest.test_case "every-nth schedule" `Quick test_every_nth;
          Alcotest.test_case "one-shot schedule" `Quick test_one_shot;
          Alcotest.test_case "probability is seeded" `Quick test_probability_deterministic;
          Alcotest.test_case "pause" `Quick test_pause;
          Alcotest.test_case "arm validation" `Quick test_arm_validation;
          Alcotest.test_case "disarm and accounting" `Quick test_disarm_and_sites;
          Alcotest.test_case "mem.read covers comparisons" `Quick test_mem_read_compare;
          Alcotest.test_case "fault-point parity" `Quick test_point_parity;
        ] );
      ( "unwind",
        List.map
          (fun (name, run) -> Alcotest.test_case name `Quick (fun () -> run ()))
          unwind_cases
        @ [
            Alcotest.test_case "repeated injections" `Quick test_repeated_injections;
            Alcotest.test_case "batch unwinds atomically" `Quick test_batch_unwind;
          ] );
    ]
