(* Batched access path: group-descent lookups, batched mutations,
   bottom-up bulk load, and the zero-allocation contract. *)

module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Record_store = Pk_records.Record_store

let key_len = 12

(* Every scheme x structure, plus the prefix B+-tree and the hybrid. *)
let makers : (string * (Pk_mem.Mem.t -> Record_store.t -> Index.t)) list =
  List.concat_map
    (fun st ->
      List.map
        (fun (sname, scheme) ->
          ( Index.structure_tag st ^ "/" ^ sname,
            fun mem records -> Index.make st scheme mem records ))
        (Support.scheme_matrix ~key_len))
    [ Index.B_tree; Index.T_tree ]
  @ [
      ("B+/prefix", fun mem records -> Index.make_prefix_btree mem records);
      ( "hybrid",
        fun mem records -> Index.make_hybrid ~key_len:(Some key_len) Index.B_tree mem records );
    ]

let loaded_index make ~seed ~n =
  let mem, records = Support.make_env () in
  let ix = make mem records in
  let rng = Prng.create (Int64.of_int seed) in
  let keys = Keygen.uniform ~rng ~key_len ~alphabet:8 n in
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      if not (ix.Index.insert k ~rid) then Alcotest.failf "seed insert %s" (Key.to_hex k))
    keys;
  (ix, records, keys)

(* {2 Batched lookup == singles, with deref parity} *)

let check_batch_lookup (name, make) seed =
  let n = 300 in
  let ix, _records, keys = loaded_index make ~seed ~n in
  let rng = Prng.create (Int64.of_int (seed + 7)) in
  let present = Hashtbl.create n in
  Array.iter (fun k -> Hashtbl.replace present k ()) keys;
  let absent =
    Keygen.uniform ~rng ~key_len ~alphabet:9 100
    |> Array.to_list
    |> List.filter (fun k -> not (Hashtbl.mem present k))
    |> Array.of_list
  in
  let m = 150 in
  (* Mixed batch: present keys (with duplicates) and absent keys. *)
  let probes =
    Array.init m (fun i ->
        if i mod 3 = 2 && Array.length absent > 0 then
          absent.(Prng.int rng (Array.length absent))
        else keys.(Prng.int rng n))
  in
  ix.Index.reset_counters ();
  let singles = Array.map ix.Index.lookup probes in
  let derefs_singles = ix.Index.deref_count () in
  ix.Index.reset_counters ();
  (* An out array longer than the batch: slots past it stay untouched. *)
  let out = Array.make (m + 3) 99 in
  ix.Index.lookup_into probes out;
  let derefs_batch = ix.Index.deref_count () in
  Array.iteri
    (fun i want ->
      let expect = match want with None -> -1 | Some r -> r in
      if out.(i) <> expect then
        Alcotest.failf "%s (seed %d): probe %d (%s): batch %d, single %s" name seed i
          (Key.to_hex probes.(i)) out.(i)
          (match want with None -> "None" | Some r -> string_of_int r))
    singles;
  if out.(m) <> 99 || out.(m + 2) <> 99 then Alcotest.failf "%s: slot past the batch written" name;
  (* A3 still holds on the batched path: same dereference total. *)
  if derefs_batch <> derefs_singles then
    Alcotest.failf "%s (seed %d): batch derefs %d <> singles derefs %d" name seed derefs_batch
      derefs_singles;
  true

(* {2 Batched mutations == singles in batch order} *)

let dump ix =
  let l = ref [] in
  ix.Index.iter (fun ~key ~rid -> l := (key, rid) :: !l);
  List.rev !l

let check_batch_mutations (name, make) seed =
  let rng = Prng.create (Int64.of_int seed) in
  let pool_n = 260 in
  let pool = Keygen.uniform ~rng ~key_len ~alphabet:6 pool_n in
  let mem_a, rec_a = Support.make_env () in
  let mem_b, rec_b = Support.make_env () in
  let a = make mem_a rec_a and b = make mem_b rec_b in
  (* Identical record-allocation histories keep rids comparable. *)
  let pre = Array.sub pool 0 (pool_n / 2) in
  Array.iter
    (fun k ->
      let ra = Record_store.insert rec_a ~key:k ~payload:Bytes.empty in
      let rb = Record_store.insert rec_b ~key:k ~payload:Bytes.empty in
      ignore (a.Index.insert k ~rid:ra);
      ignore (b.Index.insert k ~rid:rb))
    pre;
  let m = 100 in
  (* Inserts, including keys already present and in-batch duplicates. *)
  let ins = Array.init m (fun _ -> pool.(Prng.int rng pool_n)) in
  let rids_a = Array.map (fun k -> Record_store.insert rec_a ~key:k ~payload:Bytes.empty) ins in
  let rids_b = Array.map (fun k -> Record_store.insert rec_b ~key:k ~payload:Bytes.empty) ins in
  let res_batch = a.Index.insert_batch ins ~rids:rids_a in
  let res_single = Array.mapi (fun i k -> b.Index.insert k ~rid:rids_b.(i)) ins in
  if res_batch <> res_single then Alcotest.failf "%s (seed %d): insert results differ" name seed;
  a.Index.validate ();
  let del = Array.init m (fun _ -> pool.(Prng.int rng pool_n)) in
  let del_batch = a.Index.delete_batch del in
  let del_single = Array.map b.Index.delete del in
  if del_batch <> del_single then Alcotest.failf "%s (seed %d): delete results differ" name seed;
  a.Index.validate ();
  b.Index.validate ();
  if a.Index.count () <> b.Index.count () then
    Alcotest.failf "%s (seed %d): counts %d vs %d" name seed (a.Index.count ())
      (b.Index.count ());
  if dump a <> dump b then Alcotest.failf "%s (seed %d): contents differ" name seed;
  true

(* {2 Bulk load == incremental build} *)

let check_bulk_load (name, make) seed =
  let n = 600 in
  let keys = Support.sorted_keys ~seed ~key_len ~alphabet:8 n in
  List.iter
    (fun fill ->
      let mem, records = Support.make_env () in
      let bulk = make mem records in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      bulk.Index.of_sorted ~fill entries;
      bulk.Index.validate ();
      if bulk.Index.count () <> n then
        Alcotest.failf "%s fill %.2f: count %d" name fill (bulk.Index.count ());
      Array.iter
        (fun (k, rid) ->
          match bulk.Index.lookup k with
          | Some r when r = rid -> ()
          | _ -> Alcotest.failf "%s fill %.2f: lookup %s after bulk load" name fill (Key.to_hex k))
        entries;
      (* The batched path agrees on the bulk-loaded shape too. *)
      let got = Array.make n (-1) in
      bulk.Index.lookup_into keys got;
      Array.iteri
        (fun i r ->
          if r <> snd entries.(i) then Alcotest.failf "%s fill %.2f: batch lookup on bulk" name fill)
        got;
      (* Same contents as an incremental build over shuffled input. *)
      let mem2, rec2 = Support.make_env () in
      let inc = make mem2 rec2 in
      Array.iter
        (fun k ->
          let rid = Record_store.insert rec2 ~key:k ~payload:Bytes.empty in
          if not (inc.Index.insert k ~rid) then Alcotest.failf "%s: incremental insert" name)
        (Support.shuffled ~seed:(seed + 1) keys);
      inc.Index.validate ();
      if inc.Index.count () <> bulk.Index.count () then
        Alcotest.failf "%s fill %.2f: bulk/incremental counts differ" name fill;
      if List.map fst (dump bulk) <> List.map fst (dump inc) then
        Alcotest.failf "%s fill %.2f: bulk/incremental key sequences differ" name fill)
    [ 0.5; 0.75; 1.0 ];
  true

(* The loaders check the order inside their one loading pass, where
   each tree compares different pairs: a B-tree leaf entry against its
   sorted predecessor and the separator promoted after a leaf against
   the leaf's last key apart; a T-tree entry against its in-chunk
   predecessor and a chunk's first key against the previous chunk's
   last apart; the prefix B+-tree and the sharded engine in their own
   ordered passes.  So a swap and a duplicate go at every adjacent
   pair — the first and the last pair, each pair whose second key a
   B-tree promotes as a separator, each T-tree chunk boundary — on
   every registry tag and every scheme of [makers].  Each bad input
   must raise the shared message inside the unwind scope, leaving the
   index empty and loadable. *)
let ascending_msg = ".bulk_load: keys must be strictly ascending"

let test_bulk_load_errors () =
  let registry =
    List.map (fun tag -> (tag, Index.Registry.build ~key_len tag)) (Index.Registry.tags ())
  in
  List.iter
    (fun (name, make) ->
      let mem, records = Support.make_env () in
      let ix = make mem records in
      let keys = Support.sorted_keys ~seed:3 ~key_len ~alphabet:8 50 in
      let keys = Array.of_list (List.sort_uniq Key.compare (Array.to_list keys)) in
      let n = Array.length keys in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      let rejects what bad =
        (match ix.Index.of_sorted ~fill:1.0 bad with
        | () -> Alcotest.failf "%s: %s accepted" name what
        | exception Invalid_argument msg ->
            if not (String.ends_with ~suffix:ascending_msg msg) then
              Alcotest.failf "%s: %s raised %S" name what msg);
        if ix.Index.count () <> 0 then
          Alcotest.failf "%s: %s left %d keys" name what (ix.Index.count ())
      in
      for i = 0 to n - 2 do
        let swapped = Array.copy entries in
        swapped.(i) <- entries.(i + 1);
        swapped.(i + 1) <- entries.(i);
        rejects (Printf.sprintf "swap at %d" i) swapped;
        let dup = Array.copy entries in
        dup.(i) <- entries.(i + 1);
        rejects (Printf.sprintf "duplicate at %d" i) dup
      done;
      (* Failed loads left the index untouched and loadable. *)
      ix.Index.of_sorted ~fill:1.0 entries;
      ix.Index.validate ();
      if ix.Index.count () <> n then
        Alcotest.failf "%s: count %d after the valid load" name (ix.Index.count ());
      (* A second bulk load on a non-empty index is rejected. *)
      try
        ix.Index.of_sorted ~fill:1.0 entries;
        Alcotest.failf "%s: bulk load on non-empty index accepted" name
      with Invalid_argument _ -> ())
    (registry @ makers)

(* {2 Partial-key encoder == reference encoder}

   One encoder, [Entries.encode_pk], writes every partial key: a bulk
   load passes it the in-hand keys, [fix_pk] the record keys it copies
   into the tree's windows.  Random key sets stress its corners:
   lengths 1-24, keys of 40-300 bytes (past the windows' initial 32, so
   [fix_pk] grows them), keys that are proper prefixes of others, zero
   bytes (alphabets 2-256 draw byte values from 0), the all-zero key.
   Under bit granularity bits past a key's end read as zero, so a bit
   set keeps one key per zero-padded value (two keys equal once padded
   have no difference bit).  Each loaded B-tree and T-tree must
   validate — [validate] re-derives every stored field with the
   reference encoder — and, field by field, both the record-read field
   ([fix_pk]) and the in-hand one must decode to [Partial_key.encode]'s
   output and hold the bytes of its field image. *)

module Partial_key = Pk_partialkey.Partial_key
module Engine = Pk_core.Engine
module Mem = Pk_mem.Mem

let strip_zeros k =
  let n = ref (Bytes.length k) in
  while !n > 0 && Bytes.get k (!n - 1) = '\000' do
    decr n
  done;
  Bytes.sub_string k 0 !n

let random_key_set rng ~bits =
  let alphabet = 2 + Prng.int rng 255 in
  let rand_key len = Bytes.init len (fun _ -> Char.chr (Prng.int rng alphabet)) in
  let base = List.init (20 + Prng.int rng 200) (fun _ -> rand_key (1 + Prng.int rng 24)) in
  let derived =
    List.concat_map
      (fun k ->
        let len = Bytes.length k in
        let prefix = Bytes.sub k 0 (1 + Prng.int rng len) in
        (* An extension by random bytes and one by a zero byte. *)
        let exts =
          if len < 24 then
            [
              Bytes.cat k (rand_key (1 + Prng.int rng (24 - len)));
              Bytes.cat k (Bytes.make 1 '\000');
            ]
          else []
        in
        prefix :: exts)
      (List.filteri (fun i _ -> i mod 3 = 0) base)
  in
  let zeros = [ Bytes.make (1 + Prng.int rng 24) '\000' ] in
  (* Long keys, each with a long proper prefix and a zero extension:
     consecutive pairs change length, so a window read of a stale
     length shows. *)
  let long =
    List.concat_map
      (fun k ->
        let len = Bytes.length k in
        [ k; Bytes.sub k 0 (33 + Prng.int rng (len - 33)); Bytes.cat k (Bytes.make 1 '\000') ])
      (List.init (2 + Prng.int rng 6) (fun _ -> rand_key (40 + Prng.int rng 261)))
  in
  let keys = List.sort_uniq Key.compare (zeros @ long @ base @ derived) in
  let keys =
    if not bits then keys
    else begin
      let seen = Hashtbl.create 64 in
      List.filter
        (fun k ->
          let z = strip_zeros k in
          (not (Hashtbl.mem seen z))
          && begin
               Hashtbl.add seen z ();
               true
             end)
        keys
    end
  in
  Array.of_list keys

let check_fields ~granularity ~l_bytes keys =
  let scheme = Layout.Partial { granularity; l_bytes } in
  let mem, records = Support.make_env () in
  let reg = Mem.new_region mem ~name:"encoder" () in
  let c =
    Engine.Entries.make ~name:"Encoder" ~reg ~records ~scheme ~entries_at:0
      (Engine.Counters.create ())
  in
  let esz = Layout.entry_size scheme in
  let via_records = Mem.alloc reg (2 * esz) and in_hand = Mem.alloc reg (2 * esz) in
  let reference = Mem.alloc reg (2 * esz) in
  let field node i =
    Mem.read_bytes reg ~off:(Engine.Entries.entry_addr c node i + 8) ~len:(4 + l_bytes)
  in
  (* The reference field written as an image: its units, zero past
     them. *)
  let image = Bytes.create (Layout.pk_image_bytes ~l_bytes) in
  let write_reference i (e : Partial_key.t) =
    Bytes.fill image 0 (Bytes.length image) '\000';
    Bytes.blit e.Partial_key.pk_bits 0 image Layout.pk_image_units
      (Bytes.length e.Partial_key.pk_bits);
    Layout.write_pk_image reg (Engine.Entries.entry_addr c reference i) ~image
      ~pk_off:e.Partial_key.pk_off ~pk_len:e.Partial_key.pk_len ~l_bytes
  in
  let rids = Array.map (fun k -> Record_store.insert records ~key:k ~payload:Bytes.empty) keys in
  let expect_field what node i (e : Partial_key.t) =
    let got = Layout.read_pk reg (Engine.Entries.entry_addr c node i) ~granularity in
    if
      got.Partial_key.pk_off <> e.Partial_key.pk_off
      || got.Partial_key.pk_len <> e.Partial_key.pk_len
      || not (Bytes.equal got.Partial_key.pk_bits e.Partial_key.pk_bits)
    then Alcotest.failf "%s: field differs from the reference encoder" what
  in
  let check_entry what i (e : Partial_key.t) =
    write_reference i e;
    List.iter
      (fun (side, node) ->
        let what = Printf.sprintf "%s, entry %d (%s)" what i side in
        expect_field what node i e;
        if not (Bytes.equal (field node i) (field reference i)) then
          Alcotest.failf "%s: bytes %S, reference image %S" what
            (Bytes.to_string (field node i))
            (Bytes.to_string (field reference i)))
      [ ("records", via_records); ("in hand", in_hand) ]
  in
  let pair b k =
    let what = Printf.sprintf "key %s base %s" (Key.to_hex keys.(k)) (Key.to_hex keys.(b)) in
    Engine.Entries.write_entry c via_records 0 ~key:keys.(b) ~rid:rids.(b);
    Engine.Entries.write_entry c via_records 1 ~key:keys.(k) ~rid:rids.(k);
    Engine.Entries.fix_pk c via_records 0 ~n:2 ~base:Engine.null;
    Engine.Entries.fix_pk c via_records 1 ~n:2 ~base:Engine.null;
    Engine.Entries.encode_pk_initial c in_hand 0 keys.(b) ~len:(Bytes.length keys.(b));
    let s =
      Engine.Entries.encode_pk c in_hand 1 keys.(k) ~len:(Bytes.length keys.(k)) ~base:keys.(b)
        ~base_len:(Bytes.length keys.(b))
    in
    if s <> compare (Key.compare keys.(k) keys.(b)) 0 then Alcotest.failf "%s: sign %d" what s;
    check_entry what 0 (Partial_key.encode_initial granularity ~l_bytes ~key:keys.(b));
    check_entry what 1 (Partial_key.encode granularity ~l_bytes ~base:keys.(b) ~key:keys.(k))
  in
  let n = Array.length keys in
  for i = 1 to n - 1 do
    (* Sorted neighbours both ways, and a far pair (a T-tree parent). *)
    pair (i - 1) i;
    pair i (i - 1);
    let far = i * 7919 mod n in
    if far <> i then pair i far
  done

let check_encoder_equivalence seed =
  let rng = Prng.create (Int64.of_int seed) in
  let granularity = if Prng.bool rng then Partial_key.Byte else Partial_key.Bit in
  let l_bytes = [| 0; 1; 2; 4 |].(Prng.int rng 4) in
  let fill = 0.5 +. (float_of_int (Prng.int rng 51) /. 100.0) in
  let keys = random_key_set rng ~bits:(granularity = Partial_key.Bit) in
  let scheme = Layout.Partial { granularity; l_bytes } in
  List.iter
    (fun st ->
      let mem, records = Support.make_env () in
      let ix = Index.make st scheme mem records in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      ix.Index.of_sorted ~fill entries;
      ix.Index.validate ();
      if List.map fst (dump ix) <> Array.to_list keys then
        Alcotest.failf "%s (seed %d): loaded keys differ" ix.Index.tag seed)
    [ Index.B_tree; Index.T_tree ];
  check_fields ~granularity ~l_bytes keys;
  true

(* Out-of-range fill factors are clamped, not fatal. *)
let test_fill_clamped () =
  List.iter
    (fun fill ->
      let mem, records = Support.make_env () in
      let ix = Index.make Index.B_tree (Layout.Direct { key_len }) mem records in
      let keys = Support.sorted_keys ~seed:11 ~key_len ~alphabet:8 400 in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      ix.Index.of_sorted ~fill entries;
      ix.Index.validate ();
      Alcotest.(check int) "count" 400 (ix.Index.count ()))
    [ -1.0; 0.0; 0.3; 2.5 ]

(* {2 Zero-allocation contract}

   Steady-state [lookup_into] must not allocate per probe, and a single
   [lookup] — a one-probe batch over the tree's one-slot scratch — may
   allocate only its [Some] box, on every scheme family: direct and
   indirect (sign comparisons), partial keys at byte and bit
   granularity on both trees (packed FINDNODE results in the tree's
   entry_ops), and the prefix B+-tree (sign comparisons over stored
   suffixes). *)

let zero_alloc_indexes () =
  List.map
    (fun (sname, build) ->
      let mem, records = Support.make_env () in
      let ix : Index.t = build mem records in
      let rng = Prng.create 99L in
      let n = 6000 in
      let keys = Keygen.uniform ~rng ~key_len ~alphabet:8 n in
      Array.iter
        (fun k ->
          let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
          ignore (ix.Index.insert k ~rid))
        keys;
      (sname, ix, Array.init 256 (fun _ -> keys.(Prng.int rng n))))
    (List.map
       (fun (sname, st, scheme) -> (sname, Index.make st scheme))
       [
         ("B/direct", Index.B_tree, Layout.Direct { key_len });
         ("B/indirect", Index.B_tree, Layout.Indirect);
         ("T/direct", Index.T_tree, Layout.Direct { key_len });
         ("T/indirect", Index.T_tree, Layout.Indirect);
         ( "B/pk-bit-l2",
           Index.B_tree,
           Layout.Partial { granularity = Pk_partialkey.Partial_key.Bit; l_bytes = 2 } );
       ]
    @ List.map
        (fun tag -> (tag, Index.Registry.build ~key_len tag))
        [ "pkB"; "pkT"; "B+/prefix" ])

(* Minor words per call of [f] over [calls] calls, after three warm-up
   rounds that grow the scratch arrays. *)
let minor_words_per ~calls f =
  for _ = 1 to 3 do
    f ()
  done;
  let rounds = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int (rounds * calls)

let test_zero_alloc () =
  List.iter
    (fun (sname, ix, probes) ->
      let m = Array.length probes in
      let out = Array.make m (-1) in
      let per_probe = minor_words_per ~calls:m (fun () -> ix.Index.lookup_into probes out) in
      if per_probe > 0.1 then Alcotest.failf "%s: %.4f minor words per probe" sname per_probe)
    (zero_alloc_indexes ())

let test_zero_alloc_single () =
  List.iter
    (fun (sname, ix, probes) ->
      let m = Array.length probes in
      let per_call =
        minor_words_per ~calls:m (fun () ->
            for i = 0 to m - 1 do
              ignore (ix.Index.lookup probes.(i) : int option)
            done)
      in
      if per_call > 2.0 then Alcotest.failf "%s: %.4f minor words per single lookup" sname per_call)
    (zero_alloc_indexes ())

(* {2 Update-path allocation}

   Insert and delete place a key with the trees' one in-node search,
   which compares record keys in place, and carry each level's base as
   a record pointer.  Partial keys are re-encoded in place: the
   difference offset from the two record keys compared where they lie,
   the stored units read from the record into the tree's reusable
   window, the field stored in one write.  The undo log is a flat,
   reused buffer, and the unwind scope and the access-path wrapper call
   the operation directly, with the tree header kept in locals.  So
   every fixed-entry scheme measures 0.1-1.8 minor words per insert and
   per delete (33-36 while the wrapper and the unwind scope allocated
   a thunk, a [Fun.protect] and a header tuple on every call; pkT
   1,934 / 3,234 and pkB 184 / 192 while every guarded store allocated
   an undo record and every re-encode copied two keys).  The prefix
   B+-tree rewrites a node from a materialised entry list, 219 per
   insert and 169 per delete.  Bounds are those figures with about 15%
   headroom; a bound only ever goes down. *)

let update_alloc_bounds =
  [
    ("pkB", 2.0);
    ("B-indirect", 2.0);
    ("B-direct", 2.0);
    ("T-direct", 2.0);
    ("pkT", 2.0);
    ("B+/prefix", 252.0);
  ]

let test_update_alloc () =
  List.iter
    (fun (tag, bound) ->
      let mem, records = Support.make_env () in
      let ix = Index.Registry.build ~key_len tag mem records in
      let rng = Prng.create 23L in
      let n = 6000 and m = 64 in
      let keys = Keygen.uniform ~rng ~key_len ~alphabet:8 (n + m) in
      let rid k = Record_store.insert records ~key:k ~payload:Bytes.empty in
      for i = 0 to n - 1 do
        ignore (ix.Index.insert keys.(i) ~rid:(rid keys.(i)) : bool)
      done;
      let churn =
        Array.sub keys n m |> Array.to_list
        |> List.filter (fun k -> ix.Index.lookup k = None)
        |> List.map (fun k -> (k, rid k))
        |> Array.of_list
      in
      let check what ok k = if not ok then Alcotest.failf "%s: %s of %s failed" tag what (Key.to_hex k) in
      (* Three warm-up rounds grow the scratch arrays and the undo log. *)
      let ins = ref 0.0 and del = ref 0.0 in
      for round = 1 to 13 do
        let w0 = Gc.minor_words () in
        Array.iter (fun (k, r) -> check "insert" (ix.Index.insert k ~rid:r) k) churn;
        let w1 = Gc.minor_words () in
        Array.iter (fun (k, _) -> check "delete" (ix.Index.delete k) k) churn;
        let w2 = Gc.minor_words () in
        if round > 3 then begin
          ins := !ins +. (w1 -. w0);
          del := !del +. (w2 -. w1)
        end
      done;
      ix.Index.validate ();
      let ops = float_of_int (10 * Array.length churn) in
      List.iter
        (fun (what, words) ->
          let per_op = words /. ops in
          if per_op > bound then
            Alcotest.failf "%s: %.1f minor words per %s, bound %.0f" tag per_op what bound)
        [ ("insert", !ins); ("delete", !del) ])
    update_alloc_bounds

(* {2 Bulk-load allocation}

   A bulk load runs under one unwind scope, but every node it writes
   is fresh memory above the arena's frontier at [begin_txn]: the undo
   log records none of it (an abort re-zeroes the range instead), and
   partial keys are encoded from the in-hand keys.  pkB paid 71.7
   minor words per key when each of those stores was logged and each
   encode copied two keys, and 1.8 while the leaf level kept an array
   of entry indices.  The gate counts every allocated word, minor and
   major, because a grown undo log lands on the major heap.  pkB
   measures 0.80 words per key and pkT 0.65, most of it the undo log's
   one allocation record per node; logging the fresh nodes again would
   add about 20.  Bounds are those figures plus about 15%. *)

let bulk_alloc_bounds = [ ("pkB", 0.92); ("pkT", 0.75) ]

let test_bulk_alloc () =
  List.iter
    (fun (tag, bound) ->
      let mem, records = Support.make_env () in
      let ix = Index.Registry.build ~key_len tag mem records in
      let keys = Support.sorted_keys ~seed:31 ~key_len ~alphabet:200 20_000 in
      let keys = Array.of_list (List.sort_uniq Key.compare (Array.to_list keys)) in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      let before = Gc.allocated_bytes () in
      ix.Index.of_sorted ~fill:1.0 entries;
      let per_key =
        (Gc.allocated_bytes () -. before) /. float_of_int (8 * Array.length entries)
      in
      ix.Index.validate ();
      if per_key > bound then
        Alcotest.failf "%s: %.2f words allocated per bulk-loaded key, bound %.2f" tag per_key
          bound)
    bulk_alloc_bounds

(* {2 Bulk loads read no record}

   The loader encodes partial keys from the in-hand keys, so a pkB or
   pkT bulk load touches only the tree's own memory.  The records live
   in a memory system of their own, with its own cache simulator;
   tracing both across the load, the records' simulator must see no
   access at all (each record read would be one), while the tree's
   sees its node writes. *)
let test_bulk_no_record_reads () =
  let module Mem = Pk_mem.Mem in
  let module Cachesim = Pk_cachesim.Cachesim in
  let module Machine = Pk_cachesim.Machine in
  List.iter
    (fun tag ->
      let traced () = Mem.create ~cache:(Cachesim.create (Machine.to_config Machine.ultra30)) () in
      let rec_mem = traced () and tree_mem = traced () in
      let records = Record_store.create rec_mem in
      let ix = Index.Registry.build ~key_len tag tree_mem records in
      let keys = Support.sorted_keys ~seed:37 ~key_len ~alphabet:200 20_000 in
      let keys = Array.of_list (List.sort_uniq Key.compare (Array.to_list keys)) in
      let entries =
        Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
      in
      let accesses m =
        (Cachesim.snapshot (Option.get (Mem.cache m))).Cachesim.total_accesses
      in
      let r0 = accesses rec_mem and t0 = accesses tree_mem in
      Mem.with_tracing rec_mem true (fun () ->
          Mem.with_tracing tree_mem true (fun () -> ix.Index.of_sorted ~fill:1.0 entries));
      let record_accesses = accesses rec_mem - r0 and tree_accesses = accesses tree_mem - t0 in
      if record_accesses <> 0 then
        Alcotest.failf "%s: bulk load made %d record-region accesses" tag record_accesses;
      if tree_accesses = 0 then Alcotest.failf "%s: the tree's accesses were not traced" tag;
      ix.Index.validate ())
    [ "pkB"; "pkT" ]

(* Singles between two identical batches run through the tree's one-slot
   scratch: the second batch must re-aim the scratch at its own arrays
   and reproduce the first, and the singles must leave the caller's
   result array alone. *)
let test_interleaved (name, make) =
  let ix, _records, keys = loaded_index make ~seed:17 ~n:400 in
  let rng = Prng.create 18L in
  (* Alphabet 9 draws mostly absent keys: misses mixed with hits. *)
  let others = Keygen.uniform ~rng ~key_len ~alphabet:9 16 in
  let probes =
    Array.init 64 (fun i ->
        if i mod 4 = 3 then others.(i / 4) else keys.(Prng.int rng (Array.length keys)))
  in
  let first = Array.make 64 (-2) in
  ix.Index.lookup_into probes first;
  let kept = Array.copy first in
  Array.iteri
    (fun i k ->
      let want = if first.(i) < 0 then None else Some first.(i) in
      if ix.Index.lookup k <> want then Alcotest.failf "%s: single %d disagrees with batch" name i)
    probes;
  if first <> kept then Alcotest.failf "%s: singles wrote the caller's result array" name;
  let again = Array.make 64 (-2) in
  ix.Index.lookup_into probes again;
  if again <> first then Alcotest.failf "%s: batch after singles differs" name

(* {2 Edge cases} *)

let test_empty_and_errors () =
  let mem, records = Support.make_env () in
  let ix = Index.make Index.B_tree (Layout.Direct { key_len }) mem records in
  (* Empty batch. *)
  ix.Index.lookup_into [||] [||];
  Alcotest.(check int) "empty insert" 0
    (Array.length (ix.Index.insert_batch [||] ~rids:[||]));
  (* Batch and single against an empty index. *)
  let keys = Support.sorted_keys ~seed:5 ~key_len ~alphabet:8 10 in
  let out = Array.make 10 0 in
  ix.Index.lookup_into keys out;
  Array.iter (fun r -> if r <> -1 then Alcotest.fail "empty index returned a hit") out;
  if ix.Index.lookup keys.(0) <> None then Alcotest.fail "empty index returned a single hit";
  (* Mismatched rids. *)
  (try
     ignore (ix.Index.insert_batch keys ~rids:[| 1 |]);
     Alcotest.fail "mismatched rids accepted"
   with Invalid_argument _ -> ());
  (* Undersized out array. *)
  (try
     ix.Index.lookup_into keys (Array.make 3 0);
     Alcotest.fail "undersized out accepted"
   with Invalid_argument _ -> ());
  ignore records

let seeds_for prop pairs =
  List.map
    (fun ((name, _) as maker) ->
      Support.seeded_qtest ~count:12 name (fun seed -> prop maker seed))
    pairs

let () =
  Alcotest.run "pk_batch"
    [
      ("batch-lookup", seeds_for check_batch_lookup makers);
      ("batch-mutations", seeds_for check_batch_mutations makers);
      ("bulk-load", seeds_for check_bulk_load makers);
      ( "bulk-load-encoder",
        [
          Support.seeded_qtest ~count:60 "in-hand encoder = reference" check_encoder_equivalence;
        ] );
      ( "bulk-load-edges",
        [
          Alcotest.test_case "errors" `Quick test_bulk_load_errors;
          Alcotest.test_case "fill clamped" `Quick test_fill_clamped;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "every scheme lookup_into" `Quick test_zero_alloc;
          Alcotest.test_case "every scheme single lookup" `Quick test_zero_alloc_single;
          Alcotest.test_case "steady insert and delete" `Quick test_update_alloc;
          Alcotest.test_case "bulk load" `Quick test_bulk_alloc;
        ] );
      ( "bulk-load-records",
        [
          Alcotest.test_case "pkB and pkT loads read no record" `Quick test_bulk_no_record_reads;
        ] );
      ( "interleaved",
        List.map
          (fun ((name, _) as maker) ->
            Alcotest.test_case name `Quick (fun () -> test_interleaved maker))
          makers );
      ("edges", [ Alcotest.test_case "empty and errors" `Quick test_empty_and_errors ]);
    ]
