(* Tests for the shared entry layouts. *)

module Mem = Pk_mem.Mem
module Cachesim = Pk_cachesim.Cachesim
module Machine = Pk_cachesim.Machine
module Key = Pk_keys.Key
module Layout = Pk_core.Layout
module Partial_key = Pk_partialkey.Partial_key
module Pk_compare = Pk_partialkey.Pk_compare
module Prng = Pk_util.Prng

let region () =
  let cache = Cachesim.create (Machine.to_config Machine.ultra30) in
  let mem = Mem.create ~cache () in
  Mem.new_region mem ~name:"layout" ()

let test_entry_sizes () =
  Alcotest.(check int) "direct 8" 16 (Layout.entry_size (Layout.Direct { key_len = 8 }));
  Alcotest.(check int) "direct 36" 44 (Layout.entry_size (Layout.Direct { key_len = 36 }));
  Alcotest.(check int) "indirect" 8 (Layout.entry_size Layout.Indirect);
  Alcotest.(check int) "pk l=0" 12
    (Layout.entry_size (Layout.Partial { granularity = Partial_key.Byte; l_bytes = 0 }));
  Alcotest.(check int) "pk l=2" 14
    (Layout.entry_size (Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 }));
  Alcotest.(check int) "pk bit l=2" 14
    (Layout.entry_size (Layout.Partial { granularity = Partial_key.Bit; l_bytes = 2 }))

let test_scheme_tags () =
  Alcotest.(check string) "direct" "direct20" (Layout.scheme_tag (Layout.Direct { key_len = 20 }));
  Alcotest.(check string) "indirect" "indirect" (Layout.scheme_tag Layout.Indirect);
  Alcotest.(check string) "pk" "pk-bit-l4"
    (Layout.scheme_tag (Layout.Partial { granularity = Partial_key.Bit; l_bytes = 4 }))

let test_rec_ptr_roundtrip () =
  let r = region () in
  let a = Mem.alloc r 32 in
  Layout.set_rec_ptr r a 0x1234567890;
  Alcotest.(check int) "rec ptr" 0x1234567890 (Layout.rec_ptr r a)

let test_direct_key_roundtrip () =
  let r = region () in
  let a = Mem.alloc r 64 in
  let k = Bytes.of_string "twentybytekey0123456" in
  Layout.write_direct_key r a k;
  Alcotest.check Support.key_testable "roundtrip" k (Layout.read_direct_key r a ~key_len:20)

(* Store a partial key through the one-write field image the trees
   use, with stale bytes past the live units in the image. *)
let write_pk r a ~l_bytes (pk : Partial_key.t) =
  let image = Bytes.make (Layout.pk_image_bytes ~l_bytes) '\xff' in
  Bytes.fill image Layout.pk_image_units l_bytes '\000';
  Bytes.blit pk.Partial_key.pk_bits 0 image Layout.pk_image_units
    (Bytes.length pk.Partial_key.pk_bits);
  Layout.write_pk_image r a ~image ~pk_off:pk.Partial_key.pk_off ~pk_len:pk.Partial_key.pk_len
    ~l_bytes

let roundtrip_pk g ~l_bytes pk =
  let r = region () in
  let a = Mem.alloc r 64 in
  write_pk r a ~l_bytes pk;
  Layout.read_pk r a ~granularity:g

let test_pk_roundtrip_byte () =
  let pk = { Partial_key.pk_off = 7; pk_len = 2; pk_bits = Bytes.of_string "xy" } in
  let got = roundtrip_pk Partial_key.Byte ~l_bytes:2 pk in
  Alcotest.(check bool) "byte roundtrip" true (got = pk);
  (* shorter than l: field zero-padded, live prefix returned *)
  let pk0 = { Partial_key.pk_off = 3; pk_len = 1; pk_bits = Bytes.of_string "q" } in
  let got0 = roundtrip_pk Partial_key.Byte ~l_bytes:4 pk0 in
  Alcotest.(check bool) "clamped roundtrip" true (got0 = pk0)

let test_pk_roundtrip_bit () =
  (* 11 bits stored -> 2 bytes on disk *)
  let pk = { Partial_key.pk_off = 100; pk_len = 11; pk_bits = Bytes.of_string "\xAB\xC0" } in
  let got = roundtrip_pk Partial_key.Bit ~l_bytes:2 pk in
  Alcotest.(check bool) "bit roundtrip" true (got = pk)

let test_pk_field_bounds () =
  let r = region () in
  let a = Mem.alloc r 64 in
  Alcotest.(check bool) "pk_off overflow rejected" true
    (try
       write_pk r a ~l_bytes:2
         { Partial_key.pk_off = 70_000; pk_len = 0; pk_bits = Bytes.empty };
       false
     with Invalid_argument _ -> true)

let test_pk_first_byte () =
  let r = region () in
  let a = Mem.alloc r 64 in
  write_pk r a ~l_bytes:2 { Partial_key.pk_off = 1; pk_len = 2; pk_bits = Bytes.of_string "AB" };
  Alcotest.(check int) "first byte" (Char.code 'A') (Layout.read_pk_first_byte r a);
  write_pk r a ~l_bytes:2 { Partial_key.pk_off = 1; pk_len = 0; pk_bits = Bytes.empty };
  Alcotest.(check int) "empty -> -1" (-1) (Layout.read_pk_first_byte r a)

(* resolve_pk_units over the stored form agrees with
   Pk_compare.resolve_by_units over the in-memory form. *)
let prop_resolve_units_equiv seed =
  let rng = Prng.create (Int64.of_int seed) in
  let g = if Prng.bool rng then Partial_key.Bit else Partial_key.Byte in
  let l_bytes = 1 + Prng.int rng 3 in
  let len = 3 + Prng.int rng 4 in
  let rand_key () = Bytes.init len (fun _ -> Char.chr (Prng.int rng 5)) in
  let base = rand_key () and key = rand_key () and search = rand_key () in
  if Key.equal base key then true
  else begin
    let pk = Partial_key.encode g ~l_bytes ~base ~key in
    let r = region () in
    let a = Mem.alloc r 64 in
    write_pk r a ~l_bytes pk;
    let rel = if Prng.bool rng then Key.Gt else Key.Eq in
    let off = pk.Partial_key.pk_off in
    let expect =
      Pk_compare.resolve_by_units g ~search ~rel ~off ~pk_len:pk.Partial_key.pk_len
        ~pk_bits:pk.Partial_key.pk_bits
    in
    (* A reused window holding stale bytes past the stored units. *)
    let units = Bytes.make l_bytes '\xff' in
    let got = Layout.resolve_pk_units r a ~scheme_granularity:g ~units ~search ~rel ~off in
    got = expect
  end

(* {2 Placement planning} *)

module Index = Pk_core.Index
module Record_store = Pk_records.Record_store
module Keygen = Pk_keys.Keygen

let test_policy_validation () =
  Layout.validate_policy Layout.blocked_default;
  let bad p = try Layout.validate_policy p; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-pow2 line" true
    (bad (Layout.Blocked { line_bytes = 48; page_bytes = 8192; huge_bytes = 1 lsl 21 }));
  Alcotest.(check bool) "line > page" true
    (bad (Layout.Blocked { line_bytes = 64; page_bytes = 32; huge_bytes = 1 lsl 21 }));
  Alcotest.(check bool) "page > huge" true
    (bad (Layout.Blocked { line_bytes = 64; page_bytes = 1 lsl 22; huge_bytes = 1 lsl 21 }))

(* A hand-built 1/3/7 tree: the plan must assign every node exactly one
   in-bounds, node-aligned offset, root first. *)
let hand_shape =
  {
    Layout.shape_node_bytes = 192;
    shape_levels =
      [|
        [| (0, 3) |];
        [| (0, 2); (2, 4); (4, 7) |];
        Array.make 7 (0, 0);
      |];
  }

let test_plan_covers_all_nodes () =
  let p = Layout.Placement.plan Layout.blocked_default hand_shape in
  Alcotest.(check bool) "not flat" false (Layout.Placement.is_flat p);
  Alcotest.(check int) "levels" 3 (Layout.Placement.level_count p);
  Alcotest.(check int) "extent" (11 * 192) (Layout.Placement.extent p);
  Alcotest.(check int) "no padding needed" 0 (Layout.Placement.padding p);
  let seen = Hashtbl.create 16 in
  for level = 0 to 2 do
    for index = 0 to Layout.Placement.nodes_at p ~level - 1 do
      match Layout.Placement.offset p ~level ~index with
      | None -> Alcotest.failf "no offset for (%d, %d)" level index
      | Some off ->
          Alcotest.(check bool) "in bounds" true (off >= 0 && off + 192 <= (11 * 192));
          Alcotest.(check int) "node-aligned" 0 (off mod 192);
          if Hashtbl.mem seen off then Alcotest.failf "offset %d assigned twice" off;
          Hashtbl.replace seen off ()
    done
  done;
  Alcotest.(check int) "all 11 nodes placed" 11 (Hashtbl.length seen);
  Alcotest.(check bool) "root placed first" true
    (Layout.Placement.offset p ~level:0 ~index:0 = Some 0)

let test_plan_rebase () =
  let p = Layout.Placement.plan Layout.blocked_default hand_shape in
  let align = Layout.Placement.base_align p in
  Alcotest.(check bool) "pow2 base align" true (align land (align - 1) = 0 && align >= 64);
  let r = Layout.Placement.rebase p ~base:(4 * align) in
  Alcotest.(check bool) "rebased root" true
    (Layout.Placement.offset r ~level:0 ~index:0 = Some (4 * align));
  Alcotest.check_raises "misaligned base"
    (Invalid_argument "Layout.Placement.rebase: misaligned base") (fun () ->
      ignore (Layout.Placement.rebase p ~base:(align + 8)));
  Alcotest.check_raises "level out of range"
    (Invalid_argument "Layout.Placement.offset: level outside the planned shape") (fun () ->
      ignore (Layout.Placement.offset p ~level:3 ~index:0))

(* {2 Flat/blocked behavioural parity}

   For every structure x key-storage scheme (plus the prefix B+-tree
   and the hybrid's tree type), bulk load the same sorted entries under
   the flat and the blocked policy: lookups, dereference counts,
   iteration order and deep validation must be indistinguishable —
   placement may only move nodes, never change behaviour. *)

let key_len = 12

let parity_makers : (string * (Layout.policy -> Pk_mem.Mem.t -> Record_store.t -> Index.t)) list
    =
  List.concat_map
    (fun st ->
      List.map
        (fun (sname, scheme) ->
          ( Index.structure_tag st ^ "/" ^ sname,
            fun layout mem records -> Index.make ~layout st scheme mem records ))
        (Support.scheme_matrix ~key_len))
    [ Index.B_tree; Index.T_tree ]
  @ [ ("B+/prefix", fun layout mem records -> Index.make_prefix_btree ~layout mem records) ]

let check_parity (name, make) seed =
  let n = 1200 in
  let entries_for records keys =
    Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) keys
  in
  let keys = Support.sorted_keys ~seed ~key_len ~alphabet:8 n in
  let build layout =
    let mem, records = Support.make_env () in
    let ix = make layout mem records in
    ix.Index.of_sorted ~fill:0.9 (entries_for records keys);
    ix
  in
  let flat = build Layout.Flat in
  let blocked = build Layout.blocked_default in
  blocked.Index.validate ();
  Alcotest.(check int) (name ^ " count") (flat.Index.count ()) (blocked.Index.count ());
  Alcotest.(check int) (name ^ " height") (flat.Index.height ()) (blocked.Index.height ());
  Alcotest.(check int) (name ^ " nodes") (flat.Index.node_count ()) (blocked.Index.node_count ());
  (* Identical probe trace: all present keys shuffled, plus misses. *)
  let probes = Support.shuffled ~seed:(seed + 1) keys in
  let miss_rng = Prng.create (Int64.of_int (seed + 2)) in
  let misses = Keygen.uniform ~rng:miss_rng ~key_len ~alphabet:9 64 in
  flat.Index.reset_counters ();
  blocked.Index.reset_counters ();
  Array.iter
    (fun k ->
      let a = flat.Index.lookup k and b = blocked.Index.lookup k in
      if a <> b then Alcotest.failf "%s: lookup diverges on %s" name (Key.to_hex k))
    (Array.append probes misses);
  Alcotest.(check int)
    (name ^ " derefs byte-identical")
    (flat.Index.deref_count ())
    (blocked.Index.deref_count ());
  Alcotest.(check int)
    (name ^ " node visits identical")
    (flat.Index.node_visits ())
    (blocked.Index.node_visits ());
  let collect ix =
    let acc = ref [] in
    ix.Index.iter (fun ~key ~rid -> acc := (key, rid) :: !acc);
    List.rev !acc
  in
  Alcotest.(check bool) (name ^ " iteration identical") true (collect flat = collect blocked);
  (* The blocked index carries a real plan covering every node. *)
  match blocked.Index.layout () with
  | None -> Alcotest.failf "%s: blocked index reports no plan" name
  | Some p ->
      Alcotest.(check bool) (name ^ " plan is blocked") false (Layout.Placement.is_flat p);
      let planned = ref 0 in
      for level = 0 to Layout.Placement.level_count p - 1 do
        planned := !planned + Layout.Placement.nodes_at p ~level
      done;
      Alcotest.(check int) (name ^ " plan covers every node") (blocked.Index.node_count ())
        !planned

let test_registry_blocked_tags () =
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " registered") true (List.mem tag (Index.Registry.tags ()));
      let mem, records = Support.make_env () in
      let ix = Index.Registry.build ~key_len tag mem records in
      Alcotest.(check bool)
        (tag ^ " index tag carries +blocked") true
        (String.length ix.Index.tag >= 8
        && String.sub ix.Index.tag (String.length ix.Index.tag - 8) 8 = "+blocked"))
    [ "pkB-blocked"; "pkT-blocked"; "B+/prefix-blocked" ]

let () =
  Alcotest.run "pk_layout"
    [
      ( "layout",
        [
          Alcotest.test_case "entry sizes" `Quick test_entry_sizes;
          Alcotest.test_case "scheme tags" `Quick test_scheme_tags;
          Alcotest.test_case "rec ptr" `Quick test_rec_ptr_roundtrip;
          Alcotest.test_case "direct key" `Quick test_direct_key_roundtrip;
          Alcotest.test_case "pk roundtrip (byte)" `Quick test_pk_roundtrip_byte;
          Alcotest.test_case "pk roundtrip (bit)" `Quick test_pk_roundtrip_bit;
          Alcotest.test_case "pk field bounds" `Quick test_pk_field_bounds;
          Alcotest.test_case "pk first byte" `Quick test_pk_first_byte;
          Support.seeded_qtest ~count:500 "stored/in-memory unit resolution agrees"
            prop_resolve_units_equiv;
        ] );
      ( "placement",
        [
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
          Alcotest.test_case "plan covers all nodes" `Quick test_plan_covers_all_nodes;
          Alcotest.test_case "rebase and bounds" `Quick test_plan_rebase;
          Alcotest.test_case "registry blocked tags" `Quick test_registry_blocked_tags;
        ] );
      ( "flat/blocked parity",
        List.map
          (fun ((name, _) as maker) ->
            Alcotest.test_case name `Quick (fun () -> check_parity maker 42))
          parity_makers );
    ]
