module Fault = Pk_fault.Fault
module Prng = Pk_util.Prng
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Mem = Pk_mem.Mem
module Record_store = Pk_records.Record_store
module Index = Pk_core.Index
module Journal = Pk_journal.Journal
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

(* {2 The op-stream oracle}

   One generator, one interpreter, one [Map] oracle and one shrinker
   for every single-writer schedule.  A scenario is plain data, so a
   failure replays from the printed op list; [Recover] mode is the same
   stream through the write-ahead journal, killed on an injected fault
   (seeded coin) or at stream end and model-checked against the
   committed prefix after {!Index.recover_with}. *)

module Opstream = struct
  type config = { node_bytes : int; key_len : int; alphabet : int; fill : float }

  type op =
    | Insert of int
    | Delete of int
    | Lookup of int
    | Range of int * int
    | Batch_insert of int list
    | Batch_delete of int list
    | Batch_lookup of int list
    | Compact

  type scenario = { seed : int; config : config; pool : Key.t array; bulk : int; ops : op list }
  type mode = Classic | Recover

  let registry tag sc =
    Index.Registry.build ~node_bytes:sc.config.node_bytes ~key_len:sc.config.key_len tag

  (* Node size, key length, byte entropy, pool, bulk prefix and the op
     stream all derive from the seed.  One mix for every mode: each op
     kind has at least 1/16 weight. *)
  let generate ?alphabet ~seed ~ops () =
    let rng = Prng.create (Int64.of_int seed) in
    let node_bytes = [| 128; 192; 256 |].(Prng.int rng 3) in
    let key_len = 8 + Prng.int rng 9 in
    let drawn = [| 2; 12; 64; 220; 256 |].(Prng.int rng 5) in
    let alphabet = Option.value alphabet ~default:drawn in
    let n_pool = 32 + Prng.int rng 33 in
    let pool = Keygen.uniform ~rng ~key_len ~alphabet n_pool in
    let bulk = if Prng.int rng 4 = 0 then 8 + Prng.int rng (n_pool - 8) else 0 in
    let fill = 0.5 +. Prng.float rng 0.5 in
    let key () = Prng.int rng n_pool in
    let keys () = List.init (Prng.int rng 9) (fun _ -> key ()) in
    let op _ =
      match Prng.int rng 16 with
      | 0 | 1 | 2 | 3 -> Insert (key ())
      | 4 | 5 | 6 -> Delete (key ())
      | 7 | 8 -> Lookup (key ())
      | 9 -> Range (key (), key ())
      | 10 | 11 -> Batch_insert (keys ())
      | 12 -> Batch_delete (keys ())
      | 13 | 14 -> Batch_lookup (keys ())
      | _ -> Compact
    in
    { seed; config = { node_bytes; key_len; alphabet; fill }; pool; bulk; ops = List.init ops op }

  let list f l = "[" ^ String.concat "; " (List.map f l) ^ "]"

  let op_to_string =
    let ints = list string_of_int in
    function
    | Insert i -> Printf.sprintf "Insert %d" i
    | Delete i -> Printf.sprintf "Delete %d" i
    | Lookup i -> Printf.sprintf "Lookup %d" i
    | Range (i, j) -> Printf.sprintf "Range (%d, %d)" i j
    | Batch_insert l -> "Batch_insert " ^ ints l
    | Batch_delete l -> "Batch_delete " ^ ints l
    | Batch_lookup l -> "Batch_lookup " ^ ints l
    | Compact -> "Compact"

  let to_string sc =
    Printf.sprintf "seed %d, alphabet %d, bulk %d, %d ops: %s" sc.seed sc.config.alphabet sc.bulk
      (List.length sc.ops) (list op_to_string sc.ops)

  (* Payload bytes and the kill coin are pure functions of the seed and
     the op's position, so a shrunk stream replays them exactly. *)
  let draw sc ~pos ~slot = Prng.create (Int64.of_int ((((sc.seed * 8191) + pos) * 257) + slot))

  let payload sc ~pos ~slot =
    let rng = draw sc ~pos ~slot in
    Bytes.init (Prng.int rng 13) (fun _ -> Char.chr (Prng.int rng 256))

  let kill_coin sc ~pos = Prng.bool (draw sc ~pos ~slot:256)

  exception Diverged of string

  let diverge fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

  let collect walk =
    let acc = ref [] in
    walk (fun ~key ~rid -> acc := (key, rid) :: !acc);
    List.rev !acc

  let show_rid = function None -> "None" | Some r -> string_of_int r

  (* The interpreter is the designated consumer of injected faults: it
     records the site and differentially validates the unwind. *)
  let attempt f =
    (try Ok (f ()) with Fault.Injected site -> Error site) [@pklint.allow "no-swallow"]

  let run ?(faults = []) ~mode ~build sc =
    Fault.reset ~seed:sc.seed ();
    List.iter (fun (site, sched) -> Fault.arm site sched) faults;
    Fun.protect ~finally:(fun () -> Fault.reset ()) @@ fun () ->
    (* Op position: 0 is the bulk load; one past the last op run is the
       end-of-stream sweep. *)
    let pos = ref 0 in
    let applied = ref 0 and injected = ref 0 and validations = ref 0 in
    (* key -> (rid, payload bytes) *)
    let oracle = ref KMap.empty in
    let killed = ref false in
    (* Trace every stream: a divergence report ends with the last
       descents of the index it was found on (the ring keeps 256). *)
    let traced = ref None in
    let trace ix =
      Obs.Trace.enable ~capacity:256 ix.Index.trace;
      traced := Some ix.Index.trace;
      ix
    in
    let trail () =
      match !traced with
      | None -> ""
      | Some ring ->
          let events, _ = Obs.Trace.drain ring in
          let skip = List.length events - 40 in
          List.filteri (fun i _ -> i >= skip) events
          |> List.map (fun e -> "\n    [trace] " ^ Obs.Trace.event_to_string e)
          |> String.concat ""
    in
    (* Entries agree when keys match, the rid resolves to the key and
       the payload bytes, and — unless a recovery re-assigned record
       ids ([rids = false]) — the rid itself matches. *)
    let agrees records ~rids (k, rid) (wk, (wrid, wpay)) =
      Key.equal k wk
      && ((not rids) || Int.equal rid wrid)
      && Key.equal (Record_store.read_key records rid) k
      && Bytes.equal (Record_store.read_payload records rid) wpay
    in
    let all_agree records ~rids got want =
      List.compare_lengths got want = 0 && List.for_all2 (agrees records ~rids) got want
    in
    let check_iter ix records ~rids =
      ix.Index.validate ();
      let got = collect ix.Index.iter and want = KMap.bindings !oracle in
      if not (all_agree records ~rids got want) then
        diverge "iteration diverges from the oracle (%d entries, oracle has %d)"
          (List.length got) (List.length want)
    in
    let check_count ix =
      if ix.Index.count () <> KMap.cardinal !oracle then
        diverge "count %d, oracle has %d" (ix.Index.count ()) (KMap.cardinal !oracle)
    in
    let sweep ix records ~rids =
      incr validations;
      check_iter ix records ~rids;
      check_count ix;
      if Record_store.count records <> KMap.cardinal !oracle then
        diverge "record store holds %d records, oracle has %d" (Record_store.count records)
          (KMap.cardinal !oracle);
      let want = KMap.bindings !oracle in
      Array.iter
        (fun k ->
          let suffix = List.filter (fun (wk, _) -> Key.compare wk k >= 0) want in
          let got = List.of_seq (Seq.take (List.length suffix + 1) (ix.Index.seq_from k)) in
          if not (all_agree records ~rids got suffix) then
            diverge "seq_from %s diverges from the oracle" (Key.to_hex k);
          match (ix.Index.lookup k, KMap.find_opt k !oracle) with
          | None, None -> ()
          | Some rid, Some w when agrees records ~rids (k, rid) (k, w) -> ()
          | got, _ -> diverge "final lookup %s returned %s" (Key.to_hex k) (show_rid got))
        sc.pool
    in
    let body () =
      let mem = Mem.create () in
      let records = Record_store.create mem in
      let journal = Journal.create () in
      let ix =
        Fault.pause (fun () ->
            let ix = trace (build mem records) in
            match mode with Classic -> ix | Recover -> Index.journaled journal records ix)
      in
      let paused = Fault.pause in
      let keys idxs = Array.of_list (List.map (fun i -> sc.pool.(i)) idxs) in
      let free rid = paused (fun () -> Record_store.delete records rid) in
      let expect what k got =
        let want = Option.map fst (KMap.find_opt k !oracle) in
        if not (rid_opt_eq got want) then
          diverge "%s %s returned %s, oracle says %s" what (Key.to_hex k) (show_rid got)
            (show_rid want)
      in
      let check_slots what keys res =
        if Array.length res <> Array.length keys then
          diverge "%s returned %d results for %d keys" what (Array.length res) (Array.length keys)
      in
      (* An injected fault must unwind the operation to a no-op: the tree
         deep-validates, agrees with the oracle, and every key the op
         touched looks up as before.  In [Recover] mode a seeded coin
         then kills the process on the spot. *)
      let aborted site touched =
        incr injected;
        incr validations;
        paused (fun () ->
            check_iter ix records ~rids:true;
            Array.iter (fun k -> expect ("lookup after an abort at " ^ site) k (ix.Index.lookup k))
              touched);
        match mode with
        | Recover when kill_coin sc ~pos:!pos -> killed := true
        | Classic | Recover -> ()
      in
      (* Batched results equal singles in batch order, so the oracle
         steps slot by slot; an abort must leave every key untouched. *)
      let insert what idxs call =
        let keys = keys idxs in
        let pays = Array.mapi (fun slot _ -> payload sc ~pos:!pos ~slot) keys in
        let rids =
          paused (fun () ->
              Array.mapi (fun i k -> Record_store.insert records ~key:k ~payload:pays.(i)) keys)
        in
        match attempt (fun () -> call keys rids) with
        | Error site ->
            Array.iter free rids;
            aborted site keys
        | Ok res ->
            check_slots what keys res;
            Array.iteri
              (fun i ok ->
                let fresh = not (KMap.mem keys.(i) !oracle) in
                if ok <> fresh then
                  diverge "%s slot %d (%s) returned %b, oracle expected %b" what i
                    (Key.to_hex keys.(i)) ok fresh;
                if ok then begin
                  oracle := KMap.add keys.(i) (rids.(i), pays.(i)) !oracle;
                  incr applied
                end
                else free rids.(i))
              res
      in
      let delete what idxs call =
        let keys = keys idxs in
        match attempt (fun () -> call keys) with
        | Error site -> aborted site keys
        | Ok res ->
            check_slots what keys res;
            Array.iteri
              (fun i ok ->
                match KMap.find_opt keys.(i) !oracle with
                | Some (rid, _) when ok ->
                    free rid;
                    oracle := KMap.remove keys.(i) !oracle;
                    incr applied
                | found ->
                    if ok || Option.is_some found then
                      diverge "%s slot %d (%s) returned %b, oracle expected %b" what i
                        (Key.to_hex keys.(i)) ok (Option.is_some found))
              res
      in
      let lookup what idxs call =
        let keys = keys idxs in
        let out = Array.make (Array.length keys) 0 in
        match attempt (fun () -> call keys out) with
        | Error site -> aborted site keys
        | Ok () ->
            Array.iteri
              (fun i got ->
                expect (Printf.sprintf "%s slot %d" what i) keys.(i)
                  (if got = -1 then None else Some got))
              out
      in
      let apply = function
        | Insert i -> insert "insert" [ i ] (fun k r -> [| ix.Index.insert k.(0) ~rid:r.(0) |])
        | Batch_insert l ->
            insert "insert_batch" l (fun keys rids -> ix.Index.insert_batch keys ~rids)
        | Delete i -> delete "delete" [ i ] (fun k -> [| ix.Index.delete k.(0) |])
        | Batch_delete l -> delete "delete_batch" l ix.Index.delete_batch
        | Lookup i ->
            lookup "lookup" [ i ] (fun k out ->
                out.(0) <- Option.value (ix.Index.lookup k.(0)) ~default:(-1))
        | Batch_lookup l -> lookup "lookup_into" l ix.Index.lookup_into
        | Range (a, b) ->
            (* injection paused: ranges hunt ordering bugs, not unwinds *)
            paused (fun () ->
                let a = sc.pool.(a) and b = sc.pool.(b) in
                let lo, hi = if Key.compare a b <= 0 then (a, b) else (b, a) in
                let want =
                  KMap.bindings !oracle
                  |> List.filter (fun (k, _) -> Key.compare k lo >= 0 && Key.compare k hi <= 0)
                in
                let got = collect (ix.Index.range ~lo ~hi) in
                if not (all_agree records ~rids:true got want) then
                  diverge "range [%s, %s]: %d results, oracle has %d" (Key.to_hex lo)
                    (Key.to_hex hi) (List.length got) (List.length want))
        | Compact -> (
            (* content-preserving and unlogged: the oracle is unchanged *)
            let gap = [| 0.0; 0.1; 0.25 |].(!pos mod 3) in
            match attempt (fun () -> ix.Index.compact ~gap ()) with
            | Ok () -> ()
            | Error site -> aborted site [||])
      in
      if sc.bulk > 0 then
        insert "of_sorted"
          (List.sort
             (fun a b -> Key.compare sc.pool.(a) sc.pool.(b))
             (List.init sc.bulk Fun.id))
          (fun keys rids ->
            ix.Index.of_sorted ~fill:sc.config.fill (Array.map2 (fun k r -> (k, r)) keys rids);
            Array.map (fun _ -> true) keys);
      paused (fun () -> check_count ix);
      List.iter
        (fun op ->
          if not !killed then begin
            incr pos;
            apply op;
            paused (fun () ->
                check_count ix;
                if !pos mod 16 = 0 then check_iter ix records ~rids:true)
          end)
        sc.ops;
      let ops = !pos in
      incr pos;
      paused (fun () ->
          match mode with
          | Classic -> sweep ix records ~rids:true
          | Recover ->
              (* The crash: the in-memory tree is dropped; only the
                 journal bytes survive, re-read as a restarted process
                 would read them, and the same build is recovered from
                 their committed prefix. *)
              let reread = Journal.of_bytes (Journal.to_bytes journal) in
              if Journal.byte_size reread <> Journal.byte_size journal then
                diverge "journal changed size across serialization: %d -> %d"
                  (Journal.byte_size journal) (Journal.byte_size reread);
              let _, records, rix, _ =
                Index.recover_with ~build:(fun mem records -> trace (build mem records)) reread
              in
              incr validations (* [recover] deep-validated the rebuilt tree *);
              sweep rix records ~rids:false);
      { ops; applied = !applied; injected = !injected; validations = !validations }
    in
    (* Any exception escaping the index is a divergence too, so the
       shrinker works on crashes as well as wrong answers. *)
    match body () with
    | o -> Ok o
    | exception Diverged msg -> Error (!pos, msg ^ trail ())
    | exception e ->
        Error (!pos, "exception " ^ Printexc.to_string e ^ trail ()) [@pklint.allow "no-swallow"]

  (* Delta debugging on the op list: remove contiguous chunks, halving
     the chunk size down to single ops and keeping any removal that
     still fails; then try dropping the bulk load. *)
  let shrink ?faults ~mode ~build sc =
    let fails sc = Result.is_error (run ?faults ~mode ~build sc) in
    let unbulk sc =
      let bare = { sc with bulk = 0 } in
      if sc.bulk > 0 && fails bare then bare else sc
    in
    let rec at_chunk sc chunk =
      if chunk < 1 then sc
      else
        let rec scan i =
          if i >= List.length sc.ops then None
          else
            let cand = { sc with ops = List.filteri (fun j _ -> j < i || j >= i + chunk) sc.ops } in
            if fails cand then Some cand else scan (i + chunk)
        in
        match scan 0 with
        | Some sc' -> at_chunk sc' (min chunk (max 1 (List.length sc'.ops / 2)))
        | None -> at_chunk sc (chunk / 2)
    in
    unbulk (at_chunk (unbulk sc) (max 1 (List.length sc.ops / 2)))

  let check ?faults ~mode ~build ~label sc =
    match run ?faults ~mode ~build sc with
    | Ok o -> Ok o
    | Error (op, msg) ->
        let small = shrink ?faults ~mode ~build sc in
        let replay =
          match run ?faults ~mode ~build small with
          | Error (op, msg) -> Printf.sprintf "fails at op %d: %s" op msg
          | Ok _ -> "no longer fails (nondeterministic index?)"
        in
        Error
          (Printf.sprintf "[chaos %s %s seed=%d op=%d] %s\n  shrunk replay %s\n  %s"
             (match mode with Classic -> "classic" | Recover -> "recover")
             label sc.seed op
             (List.hd (String.split_on_char '\n' msg))
             replay (to_string small))

  let suite ?(faults = fun ~seed:_ -> []) ?alphabet ?tags:only ~mode ~seeds ~ops ~on_failure () =
    let only = match only with Some ts -> ts | None -> Index.Registry.tags () in
    List.fold_left
      (fun acc seed ->
        let sc = generate ?alphabet ~seed ~ops () in
        List.fold_left
          (fun acc tag ->
            match
              check ~faults:(faults ~seed) ~mode ~build:(registry tag sc) ~label:("tag=" ^ tag) sc
            with
            | Ok o -> add acc o
            | Error report ->
                on_failure report;
                acc)
          acc only)
      zero seeds
end

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

module Shard = Pk_core.Shard

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
