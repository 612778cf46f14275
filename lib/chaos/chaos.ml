module Fault = Pk_fault.Fault
module Prng = Pk_util.Prng
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Mem = Pk_mem.Mem
module Record_store = Pk_records.Record_store
module Index = Pk_core.Index
module Layout = Pk_core.Layout
module Partial_key = Pk_partialkey.Partial_key
module Obs = Pk_obs.Obs

module KMap = Map.Make (struct
  type t = Key.t

  let compare = Key.compare
end)

(* Monomorphic equality for the differential checks against the
   oracle — polymorphic [=] on keys would bypass the instrumented
   comparators. *)
let rid_opt_eq = Option.equal Int.equal
let kv_eq (k1, r1) (k2, r2) = Key.compare k1 k2 = 0 && Int.equal r1 r2
let kv_list_eq = List.equal kv_eq

type tree = T | B | PkT | PkB | Prefix

let all_trees = [ T; B; PkT; PkB; Prefix ]
let tree_tag = function T -> "T" | B -> "B" | PkT -> "pkT" | PkB -> "pkB" | Prefix -> "prefix"

let tree_of_tag tag =
  match List.find_opt (fun t -> String.equal (tree_tag t) tag) all_trees with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "unknown tree %S; valid trees: %s" tag
           (String.concat ", " (List.map tree_tag all_trees)))

type fault_plan = (string * Fault.schedule) list

let fault_sites =
  [
    "arena.alloc";
    "arena.grow";
    "mem.read";
    "mem.write";
    "btree.split";
    "btree.split.mid";
    "btree.merge";
    "btree.merge.mid";
    "btree.borrow";
    "ttree.rotate";
    "ttree.rotate.mid";
    "ttree.slide";
    "ttree.merge";
    "prefix.split";
    "prefix.split.mid";
    "prefix.merge";
    "engine.compact";
    "engine.compact.mid";
  ]

let default_fault_plan ~seed =
  let rng = Prng.create (Int64.of_int (seed lxor 0x5eed)) in
  let n_sites = 2 + Prng.int rng 3 in
  let pool = Array.of_list fault_sites in
  Keygen.shuffle ~rng pool;
  List.init n_sites (fun i ->
      let sched =
        match Prng.int rng 3 with
        | 0 -> Fault.Every_nth (4 + Prng.int rng 60)
        | 1 -> Fault.Probability (0.002 +. Prng.float rng 0.02)
        | _ -> Fault.One_shot (1 + Prng.int rng 40)
      in
      (pool.(i), sched))

type outcome = { ops : int; applied : int; injected : int; validations : int }

let zero = { ops = 0; applied = 0; injected = 0; validations = 0 }

let add a b =
  {
    ops = a.ops + b.ops;
    applied = a.applied + b.applied;
    injected = a.injected + b.injected;
    validations = a.validations + b.validations;
  }

(* Seed-derived index configuration.  Node size, key length, byte
   entropy and key scheme all vary with the seed so the suite sweeps
   the configuration space instead of one corner of it. *)
let build_index rng tree mem records =
  let node_bytes = [| 128; 192; 256 |].(Prng.int rng 3) in
  let key_len = 8 + Prng.int rng 9 in
  let baseline () = if Prng.bool rng then Layout.Direct { key_len } else Layout.Indirect in
  let partial () =
    let granularity = if Prng.bool rng then Partial_key.Byte else Partial_key.Bit in
    let l_bytes = [| 0; 2; 4 |].(Prng.int rng 3) in
    Layout.Partial { granularity; l_bytes }
  in
  let ix =
    match tree with
    | T -> Index.make ~node_bytes Index.T_tree (baseline ()) mem records
    | B -> Index.make ~node_bytes Index.B_tree (baseline ()) mem records
    | PkT -> Index.make ~node_bytes Index.T_tree (partial ()) mem records
    | PkB -> Index.make ~node_bytes Index.B_tree (partial ()) mem records
    | Prefix -> Index.make_prefix_btree ~node_bytes mem records
  in
  (ix, key_len)

let run_schedule ?(faults = []) ?alphabet ~tree ~seed ~ops () =
  Fault.reset ~seed ();
  List.iter (fun (site, sched) -> Fault.arm site sched) faults;
  Fun.protect ~finally:(fun () -> Fault.reset ()) @@ fun () ->
  let rng = Prng.create (Int64.of_int seed) in
  let mem = Mem.create () in
  let records = Record_store.create mem in
  let ix, key_len = build_index rng tree mem records in
  (* Trace every schedule: a failing counterexample arrives with the
     final descents that led to it (ring keeps the most recent 256). *)
  Obs.Trace.enable ~capacity:256 ix.Index.trace;
  let seed_alpha = [| 2; 12; 64; 220; 256 |].(Prng.int rng 5) in
  let alphabet = Option.value alphabet ~default:seed_alpha in
  let n_pool = 32 + Prng.int rng 33 in
  let pool = Keygen.uniform ~rng ~key_len ~alphabet n_pool in
  let oracle = ref KMap.empty in
  let applied = ref 0 and injected = ref 0 and validations = ref 0 in
  (* A fraction of schedules exercise the batched entry points
     (lookup_into / insert_batch / delete_batch) and seed the index
     through the bottom-up bulk loader instead of one-at-a-time
     inserts, so the access-path layer sees the same fault plans and
     oracle discipline as the classic operations. *)
  let use_batched = Prng.int rng 2 = 0 in
  let use_bulk = Prng.int rng 4 = 0 in
  let fail ~op fmt =
    Printf.ksprintf
      (fun msg ->
        (* Dump the descent trail leading up to the failure; the ring
           holds the most recent window, writers were never stopped. *)
        let events, dropped = Obs.Trace.drain ix.Index.trace in
        let keep = 40 in
        let n = List.length events in
        let tail = List.filteri (fun i _ -> i >= n - keep) events in
        let elided = dropped + (n - List.length tail) in
        if elided > 0 then Printf.eprintf "[chaos trace] ... %d earlier events elided\n" elided;
        List.iter (fun e -> Printf.eprintf "[chaos trace] %s\n" (Obs.Trace.event_to_string e)) tail;
        failwith
          (Printf.sprintf "[chaos seed=%d tree=%s op=%d] %s (replay: seed %d)" seed
             (tree_tag tree) op msg seed))
      fmt
  in
  (* The deep validator and all oracle bookkeeping run with injection
     paused: only the index operation under test may fault. *)
  let deep_validate ~op () =
    incr validations;
    Fault.pause (fun () ->
        try ix.Index.validate ()
        with Failure msg -> fail ~op "deep validator failed after injection: %s" msg)
  in
  let check_key ~op ~what key =
    Fault.pause (fun () ->
        let got = ix.Index.lookup key in
        let want = KMap.find_opt key !oracle in
        if not (rid_opt_eq got want) then
          fail ~op "%s: lookup %s returned %s, oracle says %s" what (Key.to_hex key)
            (match got with None -> "None" | Some r -> string_of_int r)
            (match want with None -> "None" | Some r -> string_of_int r))
  in
  (* The chaos harness is the designated consumer of injected faults:
     it records the site and differentially validates the unwind. *)
  let attempt f =
    (try Ok (f ()) with Fault.Injected site -> Error site) [@pklint.allow "no-swallow"]
  in
  (* Bulk-seeded schedules: load a sorted slice of the pool bottom-up
     before the operation stream starts.  The loader runs with faults
     armed; an injected abort must leave the index empty and valid. *)
  if use_bulk then begin
    let m = 8 + Prng.int rng (n_pool - 8) in
    let seed_keys = Array.sub pool 0 m in
    Array.sort Key.compare seed_keys;
    let pairs =
      Array.map
        (fun k ->
          (k, Fault.pause (fun () -> Record_store.insert records ~key:k ~payload:Bytes.empty)))
        seed_keys
    in
    let fill = 0.5 +. Prng.float rng 0.5 in
    match attempt (fun () -> ix.Index.of_sorted ~fill pairs) with
    | Ok () ->
        Array.iter (fun (k, rid) -> oracle := KMap.add k rid !oracle) pairs;
        applied := !applied + m
    | Error site ->
        incr injected;
        deep_validate ~op:0 ();
        Fault.pause (fun () ->
            if ix.Index.count () <> 0 then
              fail ~op:0 "bulk load aborted at %s but %d keys remain" site (ix.Index.count ());
            Array.iter (fun (_, rid) -> Record_store.delete records rid) pairs)
  end;
  let batch_of_pool () =
    let m = 2 + Prng.int rng 7 in
    Array.init m (fun _ -> pool.(Prng.int rng n_pool))
  in
  let check_batch_keys ~op ~what keys = Array.iter (fun k -> check_key ~op ~what k) keys in
  (* Batched mutations promise singles-in-batch-order results and
     all-or-nothing unwinding, so the oracle simulates slot by slot and
     an abort must leave every batch key untouched. *)
  let batch_insert ~op () =
    let keys = batch_of_pool () in
    let rids =
      Array.map
        (fun k -> Fault.pause (fun () -> Record_store.insert records ~key:k ~payload:Bytes.empty))
        keys
    in
    let sim = ref !oracle in
    let expected =
      Array.mapi
        (fun i k ->
          if KMap.mem k !sim then false
          else begin
            sim := KMap.add k rids.(i) !sim;
            true
          end)
        keys
    in
    match attempt (fun () -> ix.Index.insert_batch keys ~rids) with
    | Ok res ->
        Array.iteri
          (fun i ok ->
            if ok <> expected.(i) then
              fail ~op "insert_batch slot %d (%s) returned %b, oracle expected %b" i
                (Key.to_hex keys.(i)) ok expected.(i);
            if ok then incr applied
            else Fault.pause (fun () -> Record_store.delete records rids.(i)))
          res;
        oracle := !sim
    | Error site ->
        incr injected;
        Fault.pause (fun () -> Array.iter (Record_store.delete records) rids);
        deep_validate ~op ();
        check_batch_keys ~op ~what:(Printf.sprintf "insert_batch aborted at %s" site) keys
  in
  let batch_delete ~op () =
    let keys = batch_of_pool () in
    let sim = ref !oracle in
    let freed = ref [] in
    let expected =
      Array.map
        (fun k ->
          match KMap.find_opt k !sim with
          | Some rid ->
              sim := KMap.remove k !sim;
              freed := rid :: !freed;
              true
          | None -> false)
        keys
    in
    match attempt (fun () -> ix.Index.delete_batch keys) with
    | Ok res ->
        Array.iteri
          (fun i ok ->
            if ok <> expected.(i) then
              fail ~op "delete_batch slot %d (%s) returned %b, oracle expected %b" i
                (Key.to_hex keys.(i)) ok expected.(i);
            if ok then incr applied)
          res;
        Fault.pause (fun () -> List.iter (Record_store.delete records) !freed);
        oracle := !sim
    | Error site ->
        incr injected;
        deep_validate ~op ();
        check_batch_keys ~op ~what:(Printf.sprintf "delete_batch aborted at %s" site) keys
  in
  let batch_lookup ~op () =
    let keys = batch_of_pool () in
    let out = Array.make (Array.length keys) 0 in
    match attempt (fun () -> ix.Index.lookup_into keys out) with
    | Ok () ->
        Array.iteri
          (fun i got ->
            let want = Option.value (KMap.find_opt keys.(i) !oracle) ~default:(-1) in
            if got <> want then
              fail ~op "lookup_into slot %d (%s) returned %d, oracle says %d" i
                (Key.to_hex keys.(i)) got want)
          out
    | Error _ ->
        incr injected;
        deep_validate ~op ()
  in
  for op = 1 to ops do
    let key = pool.(Prng.int rng n_pool) in
    let r = Prng.int rng 16 in
    if r < 7 then begin
      if use_batched && Prng.int rng 4 = 0 then batch_insert ~op ()
      else begin
      (* insert *)
      let rid =
        Fault.pause (fun () -> Record_store.insert records ~key ~payload:Bytes.empty)
      in
      match attempt (fun () -> ix.Index.insert key ~rid) with
      | Ok ok ->
          let fresh = not (KMap.mem key !oracle) in
          if ok <> fresh then
            fail ~op "insert %s returned %b, oracle expected %b" (Key.to_hex key) ok fresh;
          if ok then begin
            oracle := KMap.add key rid !oracle;
            incr applied
          end
          else Fault.pause (fun () -> Record_store.delete records rid)
      | Error site ->
          incr injected;
          Fault.pause (fun () -> Record_store.delete records rid);
          deep_validate ~op ();
          check_key ~op ~what:(Printf.sprintf "insert aborted at %s" site) key
      end
    end
    else if r < 12 then begin
      if use_batched && Prng.int rng 4 = 0 then batch_delete ~op ()
      else begin
      (* delete *)
      match attempt (fun () -> ix.Index.delete key) with
      | Ok ok ->
          let expected = KMap.mem key !oracle in
          if ok <> expected then
            fail ~op "delete %s returned %b, oracle expected %b" (Key.to_hex key) ok expected;
          if ok then begin
            Fault.pause (fun () -> Record_store.delete records (KMap.find key !oracle));
            oracle := KMap.remove key !oracle;
            incr applied
          end
      | Error site ->
          incr injected;
          deep_validate ~op ();
          check_key ~op ~what:(Printf.sprintf "delete aborted at %s" site) key
      end
    end
    else if r < 15 then begin
      if use_batched && Prng.int rng 4 = 0 then batch_lookup ~op ()
      else begin
      (* lookup *)
      match attempt (fun () -> ix.Index.lookup key) with
      | Ok got ->
          let want = KMap.find_opt key !oracle in
          if not (rid_opt_eq got want) then
            fail ~op "lookup %s returned %s, oracle says %s" (Key.to_hex key)
              (match got with None -> "None" | Some r -> string_of_int r)
              (match want with None -> "None" | Some r -> string_of_int r)
      | Error _ ->
          (* Lookups mutate nothing; an injected read fault is just an
             aborted query. *)
          incr injected;
          deep_validate ~op ()
      end
    end
    else begin
      (* range over a random key interval, injection paused *)
      Fault.pause (fun () ->
          let a = pool.(Prng.int rng n_pool) and b = pool.(Prng.int rng n_pool) in
          let lo = if Key.compare a b <= 0 then a else b in
          let hi = if Key.compare a b <= 0 then b else a in
          let want =
            KMap.bindings !oracle
            |> List.filter (fun (k, _) -> Key.compare k lo >= 0 && Key.compare k hi <= 0)
          in
          let acc = ref [] in
          ix.Index.range ~lo ~hi (fun ~key ~rid -> acc := (key, rid) :: !acc);
          let got = List.rev !acc in
          if not (kv_list_eq got want) then
            fail ~op "range [%s, %s]: %d results, oracle has %d" (Key.to_hex lo)
              (Key.to_hex hi) (List.length got) (List.length want))
    end
  done;
  (* Schedule epilogue: full differential sweep, injection paused. *)
  Fault.pause (fun () ->
      (try ix.Index.validate ()
       with Failure msg -> fail ~op:ops "final deep validation failed: %s" msg);
      incr validations;
      let want = KMap.bindings !oracle in
      if ix.Index.count () <> List.length want then
        fail ~op:ops "count %d, oracle has %d" (ix.Index.count ()) (List.length want);
      let acc = ref [] in
      ix.Index.iter (fun ~key ~rid -> acc := (key, rid) :: !acc);
      let got = List.rev !acc in
      if not (kv_list_eq got want) then fail ~op:ops "full iteration diverges from oracle";
      let from = pool.(Prng.int rng n_pool) in
      let want_suffix = List.filter (fun (k, _) -> Key.compare k from >= 0) want in
      let got_suffix =
        List.of_seq (Seq.take (List.length want_suffix + 1) (ix.Index.seq_from from))
      in
      if not (kv_list_eq got_suffix want_suffix) then
        fail ~op:ops "seq_from %s diverges from oracle" (Key.to_hex from));
  { ops; applied = !applied; injected = !injected; validations = !validations }

let run_suite ?(faults = fun ~seed:_ -> []) ?alphabet ?(trees = all_trees) ~seeds ~ops () =
  List.fold_left
    (fun acc seed ->
      List.fold_left
        (fun acc tree ->
          add acc (run_schedule ~faults:(faults ~seed) ?alphabet ~tree ~seed ~ops ()))
        acc trees)
    zero seeds

(* {2 Kill-and-recover schedules}

   The mutation stream runs through the write-ahead journal wrapper
   with faults armed; an injected fault aborts an operation mid-batch
   and, with probability 1/2, "kills the process" on the spot (any
   schedule also dies at stream end).  The in-memory tree is then
   dropped entirely, the journal bytes are re-read as a restarted
   process would read them, and {!Index.recover} rebuilds the scheme —
   which must match the committed-prefix oracle exactly: same keys in
   order, every recovered rid resolving to the committed key and
   payload bytes.  Record ids are not durable, so the oracle tracks
   (key, payload), never rids, across the crash. *)

module Journal = Pk_journal.Journal

let recover_tags () =
  Pk_core.Hybrid.ensure_registered ();
  Pk_core.Variants.ensure_registered ();
  Pk_shard.Shard.ensure_registered ();
  Index.Registry.tags ()

let recover_core ?(faults = []) ~compact ~tag ~seed ~ops () =
  Fault.reset ~seed ();
  List.iter (fun (site, sched) -> Fault.arm site sched) faults;
  Fun.protect ~finally:(fun () -> Fault.reset ()) @@ fun () ->
  let rng = Prng.create (Int64.of_int (seed lxor 0x7ec0)) in
  let mem = Mem.create () in
  let records = Record_store.create mem in
  let node_bytes = [| 192; 256 |].(Prng.int rng 2) in
  let key_len = 8 + Prng.int rng 9 in
  let ix = Fault.pause (fun () -> Index.Registry.build ~node_bytes ~key_len tag mem records) in
  let journal = Journal.create () in
  let jx = Index.journaled journal records ix in
  let alphabet = [| 12; 64; 220; 256 |].(Prng.int rng 4) in
  let n_pool = 32 + Prng.int rng 33 in
  let pool = Keygen.uniform ~rng ~key_len ~alphabet n_pool in
  let payload () =
    let n = Prng.int rng 13 in
    Bytes.init n (fun _ -> Char.chr (Prng.int rng 256))
  in
  (* key -> (live rid, payload bytes); committed state only. *)
  let oracle = ref KMap.empty in
  let applied = ref 0 and injected = ref 0 and validations = ref 0 in
  let op = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        failwith
          (Printf.sprintf "[chaos-%s seed=%d tag=%s op=%d] %s (replay: seed %d)"
             (if compact then "rebuild" else "recover")
             seed tag !op msg seed))
      fmt
  in
  let attempt f =
    (try Ok (f ()) with Fault.Injected site -> Error site) [@pklint.allow "no-swallow"]
  in
  let crashed = ref false in
  let maybe_crash () = if Prng.int rng 2 = 0 then crashed := true in
  (* A quarter of schedules seed through the journaled bulk loader. *)
  if Prng.int rng 4 = 0 then begin
    let m = 8 + Prng.int rng (n_pool - 8) in
    let seed_keys = Array.sub pool 0 m in
    Array.sort Key.compare seed_keys;
    let triples =
      Array.map
        (fun k ->
          let p = payload () in
          (k, p, Fault.pause (fun () -> Record_store.insert records ~key:k ~payload:p)))
        seed_keys
    in
    let entries = Array.map (fun (k, _, rid) -> (k, rid)) triples in
    let fill = 0.5 +. Prng.float rng 0.5 in
    match attempt (fun () -> jx.Index.of_sorted ~fill entries) with
    | Ok () ->
        Array.iter (fun (k, p, rid) -> oracle := KMap.add k (rid, p) !oracle) triples;
        applied := !applied + m
    | Error _ ->
        incr injected;
        Fault.pause (fun () ->
            Array.iter (fun (_, _, rid) -> Record_store.delete records rid) triples);
        maybe_crash ()
  end;
  while (not !crashed) && !op < ops do
    incr op;
    let key = pool.(Prng.int rng n_pool) in
    let r = Prng.int rng 10 in
    if r < 4 then begin
      (* single insert *)
      let p = payload () in
      let rid = Fault.pause (fun () -> Record_store.insert records ~key ~payload:p) in
      match attempt (fun () -> jx.Index.insert key ~rid) with
      | Ok true ->
          oracle := KMap.add key (rid, p) !oracle;
          incr applied
      | Ok false -> Fault.pause (fun () -> Record_store.delete records rid)
      | Error _ ->
          incr injected;
          Fault.pause (fun () -> Record_store.delete records rid);
          maybe_crash ()
    end
    else if r < 6 then begin
      (* batch insert: a mid-batch kill leaves the whole batch
         uncommitted in the journal *)
      let m = 2 + Prng.int rng 7 in
      let keys = Array.init m (fun _ -> pool.(Prng.int rng n_pool)) in
      let pays = Array.init m (fun _ -> payload ()) in
      let rids =
        Array.mapi
          (fun i k ->
            Fault.pause (fun () -> Record_store.insert records ~key:k ~payload:pays.(i)))
          keys
      in
      match attempt (fun () -> jx.Index.insert_batch keys ~rids) with
      | Ok res ->
          Array.iteri
            (fun i ok ->
              if ok then begin
                oracle := KMap.add keys.(i) (rids.(i), pays.(i)) !oracle;
                incr applied
              end
              else Fault.pause (fun () -> Record_store.delete records rids.(i)))
            res
      | Error _ ->
          incr injected;
          Fault.pause (fun () -> Array.iter (Record_store.delete records) rids);
          maybe_crash ()
    end
    else if r < 8 then begin
      (* single delete *)
      match attempt (fun () -> jx.Index.delete key) with
      | Ok true ->
          (match KMap.find_opt key !oracle with
          | Some (rid, _) -> Fault.pause (fun () -> Record_store.delete records rid)
          | None -> fail "delete returned true for a key the oracle says is absent");
          oracle := KMap.remove key !oracle;
          incr applied
      | Ok false ->
          if KMap.mem key !oracle then
            fail "delete returned false for a key the oracle says is present"
      | Error _ ->
          incr injected;
          maybe_crash ()
    end
    else if r < 9 then begin
      (* batch delete *)
      let m = 2 + Prng.int rng 7 in
      let keys = Array.init m (fun _ -> pool.(Prng.int rng n_pool)) in
      match attempt (fun () -> jx.Index.delete_batch keys) with
      | Ok res ->
          Array.iteri
            (fun i ok ->
              if ok then begin
                (match KMap.find_opt keys.(i) !oracle with
                | Some (rid, _) -> Fault.pause (fun () -> Record_store.delete records rid)
                | None -> fail "delete_batch returned true for an absent key");
                oracle := KMap.remove keys.(i) !oracle;
                incr applied
              end)
            res
      | Error _ ->
          incr injected;
          maybe_crash ()
    end
    else if compact && Prng.int rng 4 = 0 then begin
      (* In-place compaction through the rebuild pipeline.  It is
         content-preserving and unlogged (the journal already holds
         every operation), so whatever happens here — completion,
         abort, or a kill landing mid-compact — the recovery oracle is
         unchanged: compaction must be crash-invisible. *)
      let gap = [| 0.0; 0.1; 0.25 |].(Prng.int rng 3) in
      match attempt (fun () -> jx.Index.compact ~gap ()) with
      | Ok () ->
          incr applied;
          Fault.pause (fun () ->
              jx.Index.validate ();
              if jx.Index.count () <> KMap.cardinal !oracle then
                fail "count diverges after compact (gap %.2f)" gap);
          incr validations
      | Error _ ->
          incr injected;
          (* the fault guard must have unwound to the exact
             pre-compact tree *)
          Fault.pause (fun () ->
              jx.Index.validate ();
              if jx.Index.count () <> KMap.cardinal !oracle then
                fail "aborted compact did not unwind (gap %.2f)" gap);
          incr validations;
          maybe_crash ()
    end
    else
      (* lookup sanity, injection paused *)
      Fault.pause (fun () ->
          let got = Option.is_some (jx.Index.lookup key) and want = KMap.mem key !oracle in
          if got <> want then fail "pre-crash lookup diverges from oracle")
  done;
  (* The crash: the in-memory tree is dropped; only the journal bytes
     survive, re-read exactly as a restarted process would read them. *)
  let rix, records2, stats =
    Fault.pause (fun () ->
        let reread = Journal.of_bytes (Journal.to_bytes journal) in
        if Journal.byte_size reread <> Journal.byte_size journal then
          fail "journal changed size across serialization: %d -> %d"
            (Journal.byte_size journal) (Journal.byte_size reread);
        let _mem2, records2, rix, stats = Index.recover ~node_bytes ~key_len ~tag reread in
        (rix, records2, stats))
  in
  incr validations (* [recover] deep-validated the rebuilt tree *);
  (* Model check against the committed-prefix oracle: exact key set in
     order, every recovered rid resolving to the committed key and
     payload bytes, spot lookups over the whole pool. *)
  Fault.pause (fun () ->
      let want = KMap.bindings !oracle in
      if rix.Index.count () <> List.length want then
        fail "recovered count %d, oracle has %d (stats: %d batches, %d ops, %d bulk, %d tail)"
          (rix.Index.count ()) (List.length want) stats.Pk_core.Engine.rec_batches
          stats.Pk_core.Engine.rec_ops stats.Pk_core.Engine.rec_bulk
          stats.Pk_core.Engine.rec_tail;
      if Record_store.count records2 <> List.length want then
        fail "recovered record store holds %d records, oracle has %d"
          (Record_store.count records2) (List.length want);
      let acc = ref [] in
      rix.Index.iter (fun ~key ~rid -> acc := (key, rid) :: !acc);
      let got = List.rev !acc in
      List.iter2
        (fun (gk, grid) (wk, (_, wpay)) ->
          if Key.compare gk wk <> 0 then
            fail "recovered key order diverges from oracle at %s (want %s)" (Key.to_hex gk)
              (Key.to_hex wk);
          let rkey = Record_store.read_key records2 grid in
          if Key.compare rkey gk <> 0 then
            fail "recovered rid %d resolves to key %s, expected %s" grid (Key.to_hex rkey)
              (Key.to_hex gk);
          let rpay = Record_store.read_payload records2 grid in
          if not (Bytes.equal rpay wpay) then
            fail "recovered payload for %s diverges from the committed bytes" (Key.to_hex gk))
        got want;
      Array.iter
        (fun k ->
          let got = Option.is_some (rix.Index.lookup k) and want = KMap.mem k !oracle in
          if got <> want then fail "post-recovery lookup %s diverges from oracle" (Key.to_hex k))
        pool);
  incr validations;
  { ops = !op; applied = !applied; injected = !injected; validations = !validations }

let run_recover_schedule ?faults ~tag ~seed ~ops () =
  recover_core ?faults ~compact:false ~tag ~seed ~ops ()

(* Same stream, with periodic in-place compactions mixed in — the
   kill can land mid-compact ("engine.compact" / "engine.compact.mid"
   are armable sites), and the recovery oracle is byte-for-byte the
   one [run_recover_schedule] uses: compaction is crash-invisible. *)
let run_rebuild_schedule ?faults ~tag ~seed ~ops () =
  recover_core ?faults ~compact:true ~tag ~seed ~ops ()

let run_recover_suite ?(faults = fun ~seed:_ -> []) ?tags ~seeds ~ops () =
  let tags = match tags with Some ts -> ts | None -> recover_tags () in
  List.fold_left
    (fun acc seed ->
      List.fold_left
        (fun acc tag -> add acc (run_recover_schedule ~faults:(faults ~seed) ~tag ~seed ~ops ()))
        acc tags)
    zero seeds

let run_rebuild_suite ?(faults = fun ~seed:_ -> []) ?tags ~seeds ~ops () =
  let tags = match tags with Some ts -> ts | None -> recover_tags () in
  List.fold_left
    (fun acc seed ->
      List.fold_left
        (fun acc tag -> add acc (run_rebuild_schedule ~faults:(faults ~seed) ~tag ~seed ~ops ()))
        acc tags)
    zero seeds

(* {2 Parallel schedules}

   One writer domain churns a disjoint key population through the
   sharded aggregate ops (mutex-per-shard) while reader domains issue
   optimistic validated reads ({!Shard.Engine.read}).  Every read of a
   frozen key must return its exact oracle rid at every instant;
   every read of a churn key must return [None] or a rid the writer
   had already logged for that key before making it visible — any
   other value means a torn read escaped validation.  Faults stay
   disarmed: the fault machinery is not domain-safe, and this
   schedule hunts protocol bugs, not unwind bugs. *)

module Shard = Pk_shard.Shard

let parallel_bases = [| "pkB"; "B-indirect"; "pkT" |]

let run_parallel_schedule ?(readers = 2) ?(shards = 4) ~seed ~ops () =
  Fault.reset ();
  let rng = Prng.create (Int64.of_int (seed lxor 0x9a11)) in
  let mem = Mem.create () in
  let records = Record_store.create mem in
  let key_len = 8 + Prng.int rng 9 in
  let base = parallel_bases.(Prng.int rng (Array.length parallel_bases)) in
  let eng =
    Shard.Engine.create ~tag:"chaos/parallel"
      ~partition:(Shard.Partition.hash shards)
      (fun _ -> Index.Registry.build ~key_len base mem records)
  in
  let ix = Shard.Engine.ops eng in
  let fail fmt = Printf.ksprintf (fun s -> failwith (Printf.sprintf "[par seed %d] %s" seed s)) fmt in
  let alphabet = [| 12; 64; 220 |].(Prng.int rng 3) in
  let n_frozen = 128 + Prng.int rng 129 in
  let n_churn = 32 + Prng.int rng 33 in
  let pool = Keygen.uniform ~rng ~key_len ~alphabet (n_frozen + n_churn) in
  let frozen = Array.sub pool 0 n_frozen in
  let churn = Array.sub pool n_frozen n_churn in
  Array.sort Key.compare frozen;
  let payload () = Bytes.init (Prng.int rng 13) (fun _ -> Char.chr (Prng.int rng 256)) in
  let entries =
    Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:(payload ()))) frozen
  in
  ix.Index.of_sorted ~fill:(0.6 +. Prng.float rng 0.4) entries;
  let oracle = Hashtbl.create n_frozen in
  Array.iter (fun (k, rid) -> Hashtbl.replace oracle k rid) entries;
  (* rids the writer has ever logged per churn key, published before
     the insert that makes them visible; readers validate against it
     after the join. *)
  let logged : (Key.t, int list) Hashtbl.t = Hashtbl.create n_churn in
  let log_rid k rid = Hashtbl.replace logged k (rid :: (Option.value ~default:[] (Hashtbl.find_opt logged k))) in
  let stop = Atomic.make false in
  let spawn_reader r =
    Domain.spawn (fun () ->
        let rrng = Prng.create (Int64.of_int ((seed * 31) + r)) in
        let rd = Shard.Engine.reader ~seed:((seed * 31) + r) eng in
        let bad = ref [] in
        let observed = ref [] in
        let reads = ref 0 in
        (* A floor of reads past the stop flag keeps the schedule
           meaningful on a single hardware thread, where the writer
           can finish before a reader domain is first scheduled. *)
        while (not (Atomic.get stop)) || !reads < 64 do
          incr reads;
          if Prng.int rrng 4 < 3 then begin
            let k = frozen.(Prng.int rrng n_frozen) in
            let want = Hashtbl.find oracle k in
            match Shard.Engine.read rd k with
            | Some rid when Int.equal rid want -> ()
            | got ->
                bad :=
                  Printf.sprintf "frozen %s: got %s, want %d" (Key.to_hex k)
                    (match got with Some r -> string_of_int r | None -> "None")
                    want
                  :: !bad
          end
          else begin
            let k = churn.(Prng.int rrng n_churn) in
            match Shard.Engine.read rd k with
            | None -> ()
            | Some rid -> observed := (k, rid) :: !observed
          end
        done;
        let restarts = Shard.Engine.restarts rd in
        Shard.Engine.release_reader rd;
        (!reads, restarts, !bad, !observed))
  in
  let domains = List.init readers spawn_reader in
  (* The writer: single churn-key inserts/deletes, plus periodic
     cross-shard batches exercising the multi-lock path. *)
  let present : (Key.t, int) Hashtbl.t = Hashtbl.create n_churn in
  let applied = ref 0 in
  for round = 1 to ops do
    if round mod 16 = 0 then begin
      let n = 4 + Prng.int rng 5 in
      let keys = Array.init n (fun _ -> churn.(Prng.int rng n_churn)) in
      if Prng.bool rng then begin
        let rids =
          Array.map
            (fun k ->
              let rid =
                Shard.Engine.record_write eng (fun () ->
                    Record_store.insert records ~key:k ~payload:(payload ()))
              in
              log_rid k rid;
              rid)
            keys
        in
        let res = ix.Index.insert_batch keys ~rids in
        Array.iteri (fun i ok -> if ok then (Hashtbl.replace present keys.(i) rids.(i); incr applied)) res
      end
      else begin
        let res = ix.Index.delete_batch keys in
        Array.iteri (fun i ok -> if ok then (Hashtbl.remove present keys.(i); incr applied)) res
      end
    end
    else begin
      let k = churn.(Prng.int rng n_churn) in
      match Hashtbl.find_opt present k with
      | Some _ ->
          if ix.Index.delete k then (Hashtbl.remove present k; incr applied)
          else fail "live delete of present churn key %s failed" (Key.to_hex k)
      | None ->
          let rid =
            Shard.Engine.record_write eng (fun () ->
                Record_store.insert records ~key:k ~payload:(payload ()))
          in
          log_rid k rid;
          if ix.Index.insert k ~rid then (Hashtbl.replace present k rid; incr applied)
          else fail "live insert of absent churn key %s failed" (Key.to_hex k)
    end
  done;
  Atomic.set stop true;
  let results = List.map Domain.join domains in
  let validations = ref 0 in
  let total_reads = ref 0 and total_restarts = ref 0 in
  List.iter
    (fun (reads, restarts, bad, observed) ->
      total_reads := !total_reads + reads;
      total_restarts := !total_restarts + restarts;
      (match bad with
      | [] -> ()
      | e :: _ -> fail "%d invalid frozen reads, first: %s" (List.length bad) e);
      List.iter
        (fun (k, rid) ->
          incr validations;
          let ok = List.exists (Int.equal rid) (Option.value ~default:[] (Hashtbl.find_opt logged k)) in
          if not ok then fail "churn read %s returned unlogged rid %d (torn read?)" (Key.to_hex k) rid)
        observed;
      if reads = 0 then fail "a reader domain made no progress")
    results;
  (* Post-join sweep: the quiescent aggregate must match the model
     exactly — frozen population untouched, churn keys as last
     committed. *)
  Array.iter
    (fun (k, rid) ->
      incr validations;
      if not (rid_opt_eq (ix.Index.lookup k) (Some rid)) then
        fail "post-join frozen lookup %s diverges" (Key.to_hex k))
    entries;
  Array.iter
    (fun k ->
      incr validations;
      if not (rid_opt_eq (ix.Index.lookup k) (Hashtbl.find_opt present k)) then
        fail "post-join churn lookup %s diverges" (Key.to_hex k))
    churn;
  let model =
    List.sort
      (fun (k1, _) (k2, _) -> Key.compare k1 k2)
      (Array.to_list entries @ Hashtbl.fold (fun k rid acc -> (k, rid) :: acc) present [])
  in
  let got = ref [] in
  ix.Index.iter (fun ~key ~rid -> got := (key, rid) :: !got);
  if not (kv_list_eq (List.rev !got) model) then fail "post-join iteration diverges from model";
  ix.Index.validate ();
  incr validations;
  ( { ops = ops + !total_reads; applied = !applied; injected = 0; validations = !validations },
    !total_restarts )

let run_parallel_suite ?readers ?shards ~seeds ~ops () =
  List.fold_left
    (fun (acc, restarts) seed ->
      let o, r = run_parallel_schedule ?readers ?shards ~seed ~ops () in
      (add acc o, restarts + r))
    (zero, 0) seeds
