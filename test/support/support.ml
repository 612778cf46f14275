(* Shared helpers for the test suites. *)

module Prng = Pk_util.Prng
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Mem = Pk_mem.Mem
module Cachesim = Pk_cachesim.Cachesim
module Machine = Pk_cachesim.Machine
module Record_store = Pk_records.Record_store

(* A memory system with the paper's default machine attached (tracing
   off until enabled). *)
let make_env () =
  let cache = Cachesim.create (Machine.to_config Machine.ultra30) in
  let mem = Mem.create ~cache () in
  let records = Record_store.create mem in
  (mem, records)

(* Distinct sorted keys of one length: prefix-free by construction. *)
let sorted_keys ~seed ~key_len ~alphabet n =
  let rng = Prng.create (Int64.of_int seed) in
  let keys = Keygen.uniform ~rng ~key_len ~alphabet n in
  Array.sort Key.compare keys;
  keys

let shuffled ~seed arr =
  let rng = Prng.create (Int64.of_int seed) in
  let copy = Array.copy arr in
  Keygen.shuffle ~rng copy;
  copy

(* Ground-truth position of [key] in a sorted array: (low, high) with
   low = high = i on an exact match, else key in (keys.(low), keys.(high))
   with the usual -1 / n sentinels. *)
let model_position keys key =
  let n = Array.length keys in
  let rec go lo hi =
    (* invariant: keys[0..lo] < key < keys[hi..] with sentinels *)
    if hi - lo = 1 then (lo, hi)
    else
      let mid = (lo + hi) / 2 in
      match Key.compare key keys.(mid) with
      | 0 -> (mid, mid)
      | c when c < 0 -> go lo mid
      | _ -> go mid hi
  in
  if n = 0 then (-1, 0) else go (-1) n

let key_testable = Alcotest.testable (fun ppf k -> Fmt.string ppf (Key.to_hex k)) Key.equal

let cmp_testable =
  Alcotest.testable Key.pp_cmp (fun a b -> a = b)

(* A packed comparison result ({!Key.pack}) as its (cmp, offset) pair. *)
let unpack p = (Key.packed_cmp p, Key.packed_off p)

(* Seed-driven property: QCheck shrinks over the seed. *)
let seeded_qtest ?(count = 200) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count QCheck2.Gen.(int_bound 1_000_000) prop)

(* {2 Model-based index conformance}

   Drives an index through a random operation sequence, mirroring it in
   a hashtable + sorted list model, validating invariants along the
   way.  Shared by the B-tree and T-tree suites across all schemes. *)

module Index = Pk_core.Index

let conformance_run ~(make_index : Mem.t -> Record_store.t -> Index.t) ~key_len ~alphabet
    ~n_keys ~n_ops ~seed () =
  let mem, records = make_env () in
  let ix = make_index mem records in
  let rng = Prng.create (Int64.of_int seed) in
  let pool = Keygen.uniform ~rng ~key_len ~alphabet n_keys in
  let model : (Key.t, int) Hashtbl.t = Hashtbl.create n_keys in
  let fail fmt = Alcotest.failf fmt in
  let validate_every = max 1 (n_ops / 8) in
  for op = 1 to n_ops do
    let key = pool.(Prng.int rng n_keys) in
    let r = Prng.int rng 10 in
    if r < 5 then begin
      (* insert *)
      let expected_fresh = not (Hashtbl.mem model key) in
      let rid = Record_store.insert records ~key ~payload:Bytes.empty in
      let ok = ix.Index.insert key ~rid in
      if ok <> expected_fresh then
        fail "op %d: insert %s returned %b, expected %b" op (Key.to_hex key) ok expected_fresh;
      if ok then Hashtbl.replace model key rid else Record_store.delete records rid
    end
    else if r < 8 then begin
      (* delete *)
      let expected = Hashtbl.mem model key in
      let ok = ix.Index.delete key in
      if ok <> expected then
        fail "op %d: delete %s returned %b, expected %b" op (Key.to_hex key) ok expected;
      if ok then begin
        Record_store.delete records (Hashtbl.find model key);
        Hashtbl.remove model key
      end
    end
    else begin
      (* lookup *)
      let got = ix.Index.lookup key in
      let want = Hashtbl.find_opt model key in
      if got <> want then
        fail "op %d: lookup %s returned %s, expected %s" op (Key.to_hex key)
          (match got with None -> "None" | Some r -> string_of_int r)
          (match want with None -> "None" | Some r -> string_of_int r)
    end;
    if op mod validate_every = 0 then ix.Index.validate ()
  done;
  ix.Index.validate ();
  (* Full-order check. *)
  if ix.Index.count () <> Hashtbl.length model then
    fail "count %d != model %d" (ix.Index.count ()) (Hashtbl.length model);
  let expected =
    Hashtbl.fold (fun k rid acc -> (k, rid) :: acc) model [] |> List.sort compare
  in
  let got = ref [] in
  ix.Index.iter (fun ~key ~rid -> got := (key, rid) :: !got);
  let got = List.rev !got in
  if got <> expected then fail "iteration order mismatch (%d vs %d items)"
      (List.length got) (List.length expected);
  (* Random range scans. *)
  let sorted_model = Array.of_list expected in
  for _ = 1 to 5 do
    if Array.length sorted_model > 0 then begin
      let i = Prng.int rng (Array.length sorted_model) in
      let j = Prng.int rng (Array.length sorted_model) in
      let lo_i = min i j and hi_i = max i j in
      let lo = fst sorted_model.(lo_i) and hi = fst sorted_model.(hi_i) in
      let want = Array.sub sorted_model lo_i (hi_i - lo_i + 1) |> Array.to_list in
      let acc = ref [] in
      ix.Index.range ~lo ~hi (fun ~key ~rid -> acc := (key, rid) :: !acc);
      let got_range = List.rev !acc in
      if got_range <> want then
        fail "range [%s,%s] returned %d items, expected %d" (Key.to_hex lo) (Key.to_hex hi)
          (List.length got_range) (List.length want)
    end
  done;
  (* Cursor: seq_from agrees with the model suffix from random keys
     (both present and absent starting points). *)
  for _ = 1 to 5 do
    let from = pool.(Prng.int rng n_keys) in
    let want =
      List.filter (fun (k, _) -> Key.compare k from >= 0) expected
    in
    let got = List.of_seq (Seq.take (List.length want + 1) (ix.Index.seq_from from)) in
    if got <> want then
      fail "seq_from %s: %d items, expected %d" (Key.to_hex from) (List.length got)
        (List.length want)
  done;
  (* All remaining keys must be found; then drain the index. *)
  Hashtbl.iter
    (fun k rid ->
      match ix.Index.lookup k with
      | Some r when r = rid -> ()
      | _ -> fail "final lookup of %s failed" (Key.to_hex k))
    model;
  let remaining = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
  List.iter
    (fun k ->
      if not (ix.Index.delete k) then fail "drain: delete %s failed" (Key.to_hex k))
    remaining;
  if ix.Index.count () <> 0 then fail "index not empty after drain";
  ix.Index.validate ()

(* The standard scheme matrix exercised by both tree suites. *)
let scheme_matrix ~key_len =
  let open Pk_core.Layout in
  let open Pk_partialkey.Partial_key in
  [
    ("direct", Direct { key_len });
    ("indirect", Indirect);
    ("pk-byte-l2", Partial { granularity = Byte; l_bytes = 2 });
    ("pk-byte-l0", Partial { granularity = Byte; l_bytes = 0 });
    ("pk-byte-l4", Partial { granularity = Byte; l_bytes = 4 });
    ("pk-bit-l2", Partial { granularity = Bit; l_bytes = 2 });
    ("pk-bit-l0", Partial { granularity = Bit; l_bytes = 0 });
  ]
