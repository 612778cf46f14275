(* Model-based randomized conformance for every registered scheme.

   A sorted association list is the reference semantics.  A seeded PRNG
   generates an operation stream — singles, ranges, batched variants
   and an optional bulk load — that is replayed against each index
   built through [Index.Registry].  Any divergence (wrong result,
   wrong count, broken iteration order, or an exception out of the
   index) is delta-debugged down to a minimal operation stream and
   reported with the seed, so the counterexample is replayable
   verbatim.

   The stream length scales with PK_MODEL_OPS (default 300); CI runs a
   non-blocking long pass at 50000. *)

module Key = Pk_keys.Key
module Index = Pk_core.Index
module Prng = Pk_util.Prng
module Record_store = Pk_records.Record_store

let key_len = 12
let alphabet = 16
let pool_size = 48

let n_ops =
  match Sys.getenv_opt "PK_MODEL_OPS" with
  | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

(* {2 Operations}

   Keys are referred to by index into a fixed sorted pool, so an op
   stream prints compactly and replays exactly.  Batch operands are a
   (start, len) window over the pool, wrapping. *)

type op =
  | Insert of int
  | Delete of int
  | Lookup of int
  | Range of int * int
  | Batch_insert of int * int
  | Batch_delete of int * int
  | Batch_lookup of int * int
  | Compact

let op_to_string = function
  | Insert i -> Printf.sprintf "Insert %d" i
  | Delete i -> Printf.sprintf "Delete %d" i
  | Lookup i -> Printf.sprintf "Lookup %d" i
  | Range (i, j) -> Printf.sprintf "Range (%d, %d)" i j
  | Batch_insert (s, l) -> Printf.sprintf "Batch_insert (%d, %d)" s l
  | Batch_delete (s, l) -> Printf.sprintf "Batch_delete (%d, %d)" s l
  | Batch_lookup (s, l) -> Printf.sprintf "Batch_lookup (%d, %d)" s l
  | Compact -> "Compact"

type scenario = { seed : int; bulk : int; ops : op list }

let gen_ops ~seed n =
  let rng = Prng.create (Int64.of_int seed) in
  let idx () = Prng.int rng pool_size in
  List.init n (fun _ ->
      match Prng.int rng 11 with
      | 0 | 1 | 2 -> Insert (idx ())
      | 3 -> Delete (idx ())
      | 4 | 5 -> Lookup (idx ())
      | 6 -> Range (idx (), idx ())
      | 7 -> Batch_insert (idx (), Prng.int rng 9)
      | 8 -> Batch_delete (idx (), Prng.int rng 9)
      | 9 -> Batch_lookup (idx (), Prng.int rng 9)
      | _ -> Compact)

let gen_scenario ~seed =
  (* Alternate between a bulk-loaded start and an empty one so
     of_sorted is exercised against the same op streams. *)
  { seed; bulk = (if seed mod 2 = 0 then pool_size / 2 else 0); ops = gen_ops ~seed n_ops }

(* {2 The sorted-assoc reference model} *)

let rec model_insert k rid = function
  | [] -> ([ (k, rid) ], true)
  | ((k', _) as hd) :: tl ->
      let c = Key.compare k k' in
      if c < 0 then ((k, rid) :: hd :: tl, true)
      else if c = 0 then (hd :: tl, false)
      else
        let tl', fresh = model_insert k rid tl in
        (hd :: tl', fresh)

let rec model_delete k = function
  | [] -> ([], false)
  | ((k', _) as hd) :: tl ->
      let c = Key.compare k k' in
      if c < 0 then (hd :: tl, false)
      else if c = 0 then (tl, true)
      else
        let tl', hit = model_delete k tl in
        (hd :: tl', hit)

let model_lookup k m =
  List.find_map (fun (k', rid) -> if Key.compare k k' = 0 then Some rid else None) m

let pairs_equal = List.equal (fun (a, ra) (b, rb) -> Key.equal a b && Int.equal ra rb)

let opt_rid_to_string = function None -> "None" | Some r -> "Some " ^ string_of_int r

(* {2 Execution}

   Returns [None] when index and model agree for the whole stream, or
   [Some (op_index, message)] at the first divergence.  Exceptions
   escaping the index count as divergences, so shrinking also works on
   crashes.  Op index 0 is the bulk-load phase. *)

exception Diverged of string

let failf fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

let run_scenario ~build sc =
  let mem, records = Support.make_env () in
  let ix = build mem records in
  let pool = Support.sorted_keys ~seed:((sc.seed * 7919) + 11) ~key_len ~alphabet pool_size in
  let model = ref [] in
  let fresh_rid key = Record_store.insert records ~key ~payload:Bytes.empty in
  let check_count () =
    let n = ix.Index.count () and m = List.length !model in
    if n <> m then failf "count %d, model %d" n m
  in
  let check_full () =
    let got = ref [] in
    ix.Index.iter (fun ~key ~rid -> got := (key, rid) :: !got);
    let got = List.rev !got in
    if not (pairs_equal got !model) then
      failf "iteration diverges from model (%d vs %d items)" (List.length got)
        (List.length !model)
  in
  let single_insert key =
    let rid = fresh_rid key in
    let ok = ix.Index.insert key ~rid in
    let m', want = model_insert key rid !model in
    if ok <> want then failf "insert %s returned %b, model says %b" (Key.to_hex key) ok want;
    if ok then model := m' else Record_store.delete records rid
  in
  let single_delete key =
    let ok = ix.Index.delete key in
    let m', want = model_delete key !model in
    if ok <> want then failf "delete %s returned %b, model says %b" (Key.to_hex key) ok want;
    if ok then model := m'
  in
  let batch_keys s l = Array.init l (fun j -> pool.((s + j) mod pool_size)) in
  let apply = function
    | Insert i -> single_insert pool.(i mod pool_size)
    | Delete i -> single_delete pool.(i mod pool_size)
    | Lookup i ->
        let key = pool.(i mod pool_size) in
        let got = ix.Index.lookup key in
        let want = model_lookup key !model in
        if not (Option.equal Int.equal got want) then
          failf "lookup %s returned %s, model says %s" (Key.to_hex key) (opt_rid_to_string got)
            (opt_rid_to_string want)
    | Range (i, j) ->
        let a = i mod pool_size and b = j mod pool_size in
        let lo = pool.(min a b) and hi = pool.(max a b) in
        let want =
          List.filter (fun (k, _) -> Key.compare lo k <= 0 && Key.compare k hi <= 0) !model
        in
        let acc = ref [] in
        ix.Index.range ~lo ~hi (fun ~key ~rid -> acc := (key, rid) :: !acc);
        let got = List.rev !acc in
        if not (pairs_equal got want) then
          failf "range [%s, %s] returned %d items, model says %d" (Key.to_hex lo)
            (Key.to_hex hi) (List.length got) (List.length want)
    | Batch_insert (s, l) ->
        let keys = batch_keys s l in
        let rids = Array.map fresh_rid keys in
        let got = ix.Index.insert_batch keys ~rids in
        (* Batch semantics: equal to singles in batch order. *)
        Array.iteri
          (fun j ok ->
            let m', want = model_insert keys.(j) rids.(j) !model in
            if ok <> want then
              failf "insert_batch slot %d (%s) returned %b, model says %b" j
                (Key.to_hex keys.(j)) ok want;
            if ok then model := m' else Record_store.delete records rids.(j))
          got
    | Batch_delete (s, l) ->
        let keys = batch_keys s l in
        let got = ix.Index.delete_batch keys in
        Array.iteri
          (fun j ok ->
            let m', want = model_delete keys.(j) !model in
            if ok <> want then
              failf "delete_batch slot %d (%s) returned %b, model says %b" j
                (Key.to_hex keys.(j)) ok want;
            if ok then model := m')
          got
    | Batch_lookup (s, l) ->
        let keys = batch_keys s l in
        let got = Array.make (Array.length keys) 0 in
        ix.Index.lookup_into keys got;
        Array.iteri
          (fun j g ->
            let want = model_lookup keys.(j) !model in
            if g <> Option.value want ~default:(-1) then
              failf "lookup_into slot %d (%s) returned %d, model says %s" j
                (Key.to_hex keys.(j)) g (opt_rid_to_string want))
          got
    (* Content-preserving: the model is untouched, so the count /
       iteration / lookup checks after this op assert exactly the
       compaction invariant (rebuild(index) ≡ index). *)
    | Compact -> ix.Index.compact ~gap:0.1 ()
  in
  let step op_idx f =
    match
      f ();
      check_count ();
      if op_idx mod 16 = 0 then begin
        ix.Index.validate ();
        check_full ()
      end
    with
    | () -> None
    | exception Diverged msg -> Some (op_idx, msg)
    | exception e -> Some (op_idx, "exception " ^ Printexc.to_string e)
  in
  let bulk_load () =
    if sc.bulk > 0 then begin
      let pairs = Array.init sc.bulk (fun i -> (pool.(i), fresh_rid pool.(i))) in
      ix.Index.of_sorted ~fill:1.0 pairs;
      model := Array.to_list pairs
    end
  in
  match step 0 bulk_load with
  | Some _ as failure -> failure
  | None ->
      let rec go i = function
        | [] ->
            step i (fun () ->
                ix.Index.validate ();
                check_full ();
                List.iter
                  (fun (k, rid) ->
                    match ix.Index.lookup k with
                    | Some r when Int.equal r rid -> ()
                    | got ->
                        failf "final lookup %s returned %s, model says Some %d" (Key.to_hex k)
                          (opt_rid_to_string got) rid)
                  !model)
        | op :: rest -> (
            match step i (fun () -> apply op) with
            | Some _ as failure -> failure
            | None -> go (i + 1) rest)
      in
      go 1 sc.ops

(* {2 Shrinking}

   Classic delta debugging on the op list: try removing contiguous
   chunks, halving the chunk size until single ops, keeping any
   removal that still fails.  Then try dropping the bulk load. *)

let remove_chunk ops i len = List.filteri (fun j _ -> j < i || j >= i + len) ops

let shrink_scenario ~build sc0 =
  let fails sc = Option.is_some (run_scenario ~build sc) in
  let sc0 = if sc0.bulk > 0 && fails { sc0 with bulk = 0 } then { sc0 with bulk = 0 } else sc0 in
  let rec at_chunk sc chunk =
    if chunk < 1 then sc
    else
      let rec scan i =
        if i >= List.length sc.ops then None
        else
          let cand = { sc with ops = remove_chunk sc.ops i chunk } in
          if fails cand then Some cand else scan (i + chunk)
      in
      match scan 0 with
      | Some sc' -> at_chunk sc' (min chunk (max 1 (List.length sc'.ops / 2)))
      | None -> at_chunk sc (chunk / 2)
  in
  let sc = at_chunk sc0 (max 1 (List.length sc0.ops / 2)) in
  if sc.bulk > 0 && fails { sc with bulk = 0 } then { sc with bulk = 0 } else sc

let counterexample_to_string sc (op_idx, msg) =
  Printf.sprintf "seed %d, bulk %d, %d ops, failing at op %d: %s\n  [ %s ]" sc.seed sc.bulk
    (List.length sc.ops) op_idx msg
    (String.concat "; " (List.map op_to_string sc.ops))

let check_scheme ~build sc =
  match run_scenario ~build sc with
  | None -> ()
  | Some _ ->
      let small = shrink_scenario ~build sc in
      let failure =
        match run_scenario ~build small with
        | Some f -> f
        | None -> (-1, "shrunk stream no longer fails (flaky index?)")
      in
      Alcotest.failf "model divergence, shrunk counterexample:\n%s"
        (counterexample_to_string small failure)

(* {2 The suite: every registered scheme, several seeds} *)

let seeds = [ 2; 7 ]

let scheme_case tag =
  Alcotest.test_case tag `Quick (fun () ->
      let build mem records = Index.Registry.build ~key_len tag mem records in
      List.iter (fun seed -> check_scheme ~build (gen_scenario ~seed)) seeds)

(* {2 Self-test: a deliberately broken index must be caught and the
   counterexample must shrink to a handful of ops}

   The breakage is value-dependent (lookups lie for keys whose first
   byte is >= 128) so the shrinker has real work to do: most of the
   stream is irrelevant and must be removed. *)

let broken_build mem records =
  let ix = Index.Registry.build ~key_len "B-indirect" mem records in
  {
    ix with
    Index.lookup =
      (fun k -> if Char.code (Bytes.get k 0) >= 128 then None else ix.Index.lookup k);
  }

let test_broken_variant_caught () =
  let sc = gen_scenario ~seed:2 in
  (match run_scenario ~build:broken_build sc with
  | None -> Alcotest.fail "broken lookup variant slipped through the model suite"
  | Some _ -> ());
  let small = shrink_scenario ~build:broken_build sc in
  (match run_scenario ~build:broken_build small with
  | None -> Alcotest.fail "shrunk counterexample does not replay"
  | Some failure ->
      Printf.printf "shrunk broken-variant counterexample: %s\n"
        (counterexample_to_string small failure));
  if List.length small.ops > 4 then
    Alcotest.failf "shrinker left %d ops (expected <= 4)" (List.length small.ops);
  (* The sane index passes the very stream that convicts the broken one. *)
  let sane mem records = Index.Registry.build ~key_len "B-indirect" mem records in
  match run_scenario ~build:sane sc with
  | None -> ()
  | Some f -> Alcotest.failf "sane index fails the same stream: %s" (snd f)

let () =
  Pk_core.Hybrid.ensure_registered ();
  Pk_core.Variants.ensure_registered ();
  let tags = Index.Registry.tags () in
  Alcotest.run "pk_model"
    [
      ("schemes", List.map scheme_case tags);
      ( "self-test",
        [ Alcotest.test_case "broken variant is caught and shrunk" `Quick
            test_broken_variant_caught ] );
    ]
