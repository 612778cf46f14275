(* Copy-on-write epoch snapshots: pinned reads under concurrent
   mutation, COW accounting through release, the zero-allocation
   contract on the snapshot read path, and a live writer thread. *)

module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Mem = Pk_mem.Mem
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Record_store = Pk_records.Record_store

(* {2 Mem-level views: COW accounting and lifecycle} *)

let test_mem_view () =
  let mem = Mem.create () in
  let reg = Mem.new_region mem ~name:"cowtest" () in
  let n = 4096 in
  let off = Mem.alloc reg n in
  for i = 0 to n - 1 do
    Mem.write_u8 reg (off + i) (i land 0xff)
  done;
  let view = Mem.snapshot_view reg in
  Alcotest.(check bool) "is_view" true (Mem.is_view view);
  Alcotest.(check bool) "live not a view" false (Mem.is_view reg);
  Alcotest.(check int) "no COW before writes" 0 (Mem.view_cow_bytes view);
  (* Overwrite every byte through the live region; the view must keep
     serving the pre-image, from single bytes to wide reads. *)
  for i = 0 to n - 1 do
    Mem.write_u8 reg (off + i) 0xab
  done;
  if Mem.view_cow_bytes view <= 0 then Alcotest.fail "no pages captured";
  for i = 0 to n - 1 do
    Alcotest.(check int) "pinned byte" (i land 0xff) (Mem.read_u8 view (off + i))
  done;
  Alcotest.(check int) "pinned u16" 0x0100 (Mem.read_u16 view off);
  Alcotest.(check int) "live u16" 0xabab (Mem.read_u16 reg off);
  let pinned = Mem.read_bytes view ~off ~len:256 in
  for i = 0 to 255 do
    Alcotest.(check int) "pinned slice" i (Char.code (Bytes.get pinned i))
  done;
  (* Reads through the view still work on bytes never overwritten. *)
  let tail = Mem.alloc reg 64 in
  Mem.write_u8 reg tail 7;
  (* Mutators raise on the view. *)
  List.iter
    (fun (name, f) ->
      try
        f ();
        Alcotest.failf "view %s accepted" name
      with Invalid_argument _ -> ())
    [
      ("write_u8", fun () -> Mem.write_u8 view off 1);
      ("write_bytes", fun () -> Mem.write_bytes view ~off ~src:(Bytes.create 4) ~src_off:0 ~len:4);
      ("alloc", fun () -> ignore (Mem.alloc view 16));
      ("free", fun () -> Mem.free view off 16);
      ("move", fun () -> Mem.move view ~src_off:off ~dst_off:(off + 8) ~len:4);
    ];
  (* Release: COW pages dropped, further reads raise, double release
     raises, releasing a non-view raises. *)
  Mem.release_view view;
  Alcotest.(check bool) "released" false (Mem.view_live view);
  Alcotest.(check int) "COW freed" 0 (Mem.view_cow_bytes view);
  (try
     ignore (Mem.read_u8 view off);
     Alcotest.fail "read after release"
   with _ -> ());
  (try
     Mem.release_view view;
     Alcotest.fail "double release"
   with Invalid_argument _ -> ());
  (try
     Mem.release_view reg;
     Alcotest.fail "released a non-view"
   with Invalid_argument _ -> ())

(* {2 Index-level snapshots: every registered scheme} *)

let key_len = 10

let build ~tag ~seed n =
  let mem, records = Support.make_env () in
  let ix = Index.Registry.build ~key_len tag mem records in
  let rng = Prng.create (Int64.of_int seed) in
  let keys = Keygen.uniform ~rng ~key_len ~alphabet:8 n in
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      if not (ix.Index.insert k ~rid) then Alcotest.failf "seed insert %s" (Key.to_hex k))
    keys;
  (ix, records, keys)

let dump ix =
  let acc = ref [] in
  ix.Index.iter (fun ~key ~rid -> acc := (Bytes.copy key, rid) :: !acc);
  List.rev !acc

let range_dump ix ~lo ~hi =
  let acc = ref [] in
  ix.Index.range ~lo ~hi (fun ~key ~rid -> acc := (Bytes.copy key, rid) :: !acc);
  List.rev !acc

let check_assoc name want got =
  if List.length want <> List.length got then
    Alcotest.failf "%s: %d entries, want %d" name (List.length got) (List.length want);
  List.iter2
    (fun (wk, wr) (gk, gr) ->
      if not (Key.equal wk gk) then
        Alcotest.failf "%s: key %s, want %s" name (Key.to_hex gk) (Key.to_hex wk);
      if wr <> gr then Alcotest.failf "%s: rid %d, want %d" name gr wr)
    want got

let mutate_live ix records keys ~seed =
  let rng = Prng.create (Int64.of_int seed) in
  (* Delete a third of the frozen keys... *)
  Array.iteri
    (fun i k -> if i mod 3 = 0 then ignore (ix.Index.delete k))
    keys;
  (* ...and insert fresh keys from a disjoint alphabet, singles and
     batches, forcing splits/rotations over the pinned nodes. *)
  let fresh = Keygen.uniform ~rng ~key_len ~alphabet:11 400 in
  let fresh =
    Array.of_list
      (List.filter
         (fun k -> not (Array.exists (Key.equal k) keys))
         (Array.to_list fresh))
  in
  let half = Array.length fresh / 2 in
  Array.iter
    (fun k ->
      let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
      ignore (ix.Index.insert k ~rid))
    (Array.sub fresh 0 half);
  let batch = Array.sub fresh half (Array.length fresh - half) in
  let rids =
    Array.map (fun k -> Record_store.insert records ~key:k ~payload:Bytes.empty) batch
  in
  ignore (ix.Index.insert_batch batch ~rids);
  fresh

let test_isolation () =
  List.iter
    (fun tag ->
      let n = 500 in
      let ix, records, keys = build ~tag ~seed:31 n in
      let frozen = dump ix in
      let sorted = List.map fst frozen |> Array.of_list in
      let lo = sorted.(50) and hi = sorted.(Array.length sorted - 50) in
      let frozen_range = range_dump ix ~lo ~hi in
      let frozen_nodes = ix.Index.node_count () in
      let snap = ix.Index.snapshot () in
      (* The hybrid delegates to its inner index, so only the suffix is
         uniform across schemes. *)
      if not (String.length snap.Index.tag > 5 && Filename.check_suffix snap.Index.tag "@snap")
      then Alcotest.failf "%s: snapshot tag %S" tag snap.Index.tag;
      let fresh = mutate_live ix records keys ~seed:32 in
      if ix.Index.count () = n then
        Alcotest.failf "%s: live index did not diverge" tag;
      (* The snapshot serves exactly the frozen state. *)
      Alcotest.(check int) (tag ^ ": snap count") n (snap.Index.count ());
      Alcotest.(check int) (tag ^ ": snap nodes") frozen_nodes (snap.Index.node_count ());
      check_assoc (tag ^ ": snap iter") frozen (dump snap);
      check_assoc (tag ^ ": snap range") frozen_range (range_dump snap ~lo ~hi);
      List.iter
        (fun (k, rid) ->
          match snap.Index.lookup k with
          | Some r when r = rid -> ()
          | Some r -> Alcotest.failf "%s: snap rid %d, want %d" tag r rid
          | None -> Alcotest.failf "%s: snap lost %s" tag (Key.to_hex k))
        frozen;
      (* Keys inserted after the pin are invisible (unless they collide
         with a frozen key, which the alphabets rule out). *)
      Array.iter
        (fun k ->
          if snap.Index.lookup k <> None then
            Alcotest.failf "%s: snap sees later insert %s" tag (Key.to_hex k))
        fresh;
      (* Cursor from the middle agrees with the frozen suffix. *)
      let mid = sorted.(Array.length sorted / 2) in
      let suffix = List.filter (fun (k, _) -> Key.compare k mid >= 0) frozen in
      check_assoc (tag ^ ": snap cursor") suffix (List.of_seq (snap.Index.seq_from mid));
      (* Read-only: every mutator raises, as does snapshotting a
         snapshot or releasing the live index. *)
      List.iter
        (fun (name, f) ->
          try
            f ();
            Alcotest.failf "%s: snapshot %s accepted" tag name
          with Invalid_argument _ -> ())
        [
          ("insert", fun () -> ignore (snap.Index.insert lo ~rid:1));
          ("delete", fun () -> ignore (snap.Index.delete lo));
          ("insert_batch", fun () -> ignore (snap.Index.insert_batch [| lo |] ~rids:[| 1 |]));
          ("delete_batch", fun () -> ignore (snap.Index.delete_batch [| lo |]));
          ("of_sorted", fun () -> snap.Index.of_sorted ~fill:1.0 [||]);
          ("snapshot", fun () -> ignore (snap.Index.snapshot ()));
          ("live release", fun () -> ix.Index.release ());
        ];
      (* Release is exactly-once; the live index is untouched. *)
      snap.Index.release ();
      (try
         snap.Index.release ();
         Alcotest.fail "double release"
       with Invalid_argument _ -> ());
      (try
         ignore (snap.Index.lookup lo);
         Alcotest.failf "%s: snapshot read after release" tag
       with _ -> ());
      ix.Index.validate ();
      Alcotest.(check int)
        (tag ^ ": live count") (n - ((n + 2) / 3) + Array.length fresh)
        (ix.Index.count ()))
    (Index.Registry.tags ())

(* {2 Zero-allocation contract on the snapshot read path} *)

let test_zero_alloc () =
  List.iter
    (fun (sname, st, scheme) ->
      let mem, records = Support.make_env () in
      let ix = Index.make st scheme mem records in
      let rng = Prng.create 99L in
      let n = 6000 in
      let keys = Keygen.uniform ~rng ~key_len ~alphabet:8 n in
      Array.iter
        (fun k ->
          let rid = Record_store.insert records ~key:k ~payload:Bytes.empty in
          ignore (ix.Index.insert k ~rid))
        keys;
      let snap = ix.Index.snapshot () in
      (* Mutate the live tree so snapshot descents actually cross COW
         pages, not just the fall-through path. *)
      Array.iteri (fun i k -> if i mod 5 = 0 then ignore (ix.Index.delete k)) keys;
      let m = 256 in
      let probes = Array.init m (fun _ -> keys.(Prng.int rng n)) in
      let out = Array.make m (-1) in
      for _ = 1 to 3 do
        snap.Index.lookup_into probes out
      done;
      let rounds = 10 in
      let before = Gc.minor_words () in
      for _ = 1 to rounds do
        snap.Index.lookup_into probes out
      done;
      let delta = Gc.minor_words () -. before in
      let per_probe = delta /. float_of_int (rounds * m) in
      if per_probe > 0.1 then
        Alcotest.failf "%s: %.4f minor words per probe (%.0f over %d probes)" sname
          per_probe delta (rounds * m);
      (* And the answers are the pinned ones: every probe present. *)
      snap.Index.lookup_into probes out;
      Array.iter (fun r -> if r < 0 then Alcotest.failf "%s: probe missing" sname) out;
      snap.Index.release ())
    [
      ("B/direct", Index.B_tree, Layout.Direct { key_len });
      ("B/indirect", Index.B_tree, Layout.Indirect);
      ("T/direct", Index.T_tree, Layout.Direct { key_len });
      ("T/indirect", Index.T_tree, Layout.Indirect);
    ]

(* {2 Snapshot reads under a live writer thread}

   Single-writer / concurrent-reader: a writer thread streams batched
   inserts into the live index while this thread keeps re-validating
   the frozen epoch. *)

let test_writer_thread () =
  let tag = "B-direct" in
  let n = 2000 in
  let ix, records, keys = build ~tag ~seed:77 n in
  let frozen = dump ix in
  let snap = ix.Index.snapshot () in
  let rng = Prng.create 770L in
  let fresh = Keygen.uniform ~rng ~key_len ~alphabet:12 1200 in
  let fresh =
    Array.of_list
      (List.filter
         (fun k -> not (Array.exists (Key.equal k) keys))
         (Array.to_list fresh))
  in
  let batches = 24 in
  let per = Array.length fresh / batches in
  let writer_done = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        for b = 0 to batches - 1 do
          let batch = Array.sub fresh (b * per) per in
          let rids =
            Array.map
              (fun k -> Record_store.insert records ~key:k ~payload:Bytes.empty)
              batch
          in
          ignore (ix.Index.insert_batch batch ~rids);
          Thread.yield ()
        done;
        Atomic.set writer_done true)
      ()
  in
  let m = 256 in
  let probes = Array.init m (fun i -> keys.(i * 7 mod n)) in
  let out = Array.make m (-1) in
  let sweeps = ref 0 in
  while not (Atomic.get writer_done) do
    snap.Index.lookup_into probes out;
    Array.iteri
      (fun i r ->
        if r < 0 then
          Alcotest.failf "sweep %d: snapshot lost %s" !sweeps (Key.to_hex probes.(i)))
      out;
    incr sweeps;
    if !sweeps mod 16 = 0 then check_assoc "mid-write iter" frozen (dump snap);
    Thread.yield ()
  done;
  Thread.join writer;
  if !sweeps = 0 then Alcotest.fail "writer finished before any snapshot sweep";
  (* Quiesced: the snapshot still serves the frozen epoch, the live
     index has everything. *)
  check_assoc "final snapshot" frozen (dump snap);
  Alcotest.(check int) "live count" (n + (batches * per)) (ix.Index.count ());
  ix.Index.validate ();
  snap.Index.release ();
  Alcotest.(check int) "live intact after release" (n + (batches * per)) (ix.Index.count ())

let () =
  Alcotest.run "snapshot"
    [
      ("mem", [ Alcotest.test_case "view lifecycle" `Quick test_mem_view ]);
      ( "index",
        [
          Alcotest.test_case "isolation across all schemes" `Quick test_isolation;
          Alcotest.test_case "zero-alloc lookups" `Quick test_zero_alloc;
          Alcotest.test_case "writer thread" `Quick test_writer_thread;
        ] );
    ]
