(* A1-A7 — ablation benchmarks for the design choices DESIGN.md calls
   out (node size, offset granularity, FINDNODE, 4-byte equivalence,
   TLB/superpages, update mixes, hybrid dispatch). *)

open Bench_common

(* A1: node size in L2 blocks (§5.2 fixed 3 blocks after a sweep). *)
let run_a1 () =
  let n = Experiment.scaled_keys 200_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let key_len = 20 and alphabet = low_entropy in
  Printf.printf "keys=%d, key size=%d B, entropy=%s\n\n" n key_len (entropy_tag alphabet);
  let t =
    Tables.create
      ~columns:
        [
          ("scheme", Tables.Left);
          ("blocks", Tables.Right);
          ("node B", Tables.Right);
          ("L2 miss/op", Tables.Right);
          ("sim us/op", Tables.Right);
          ("wall ns/op", Tables.Right);
          ("height", Tables.Right);
        ]
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun blocks ->
      let node_bytes = blocks * 64 in
      let env = Workload.make_env () in
      let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
      let warm = Workload.probes ds ~seed:11 ~n:3000 () in
      let all = Workload.probes ds ~seed:12 ~n:(3000 + n_probe) () in
      let probe = Array.sub all 3000 n_probe in
      let schemes =
        [
          ("pkB", Index.B_tree, Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 });
          ("B-direct", Index.B_tree, Layout.Direct { key_len });
        ]
      in
      List.iter
        (fun (name, structure, scheme) ->
          match Index.make ~node_bytes structure scheme env.Workload.mem env.Workload.records with
          | exception Invalid_argument _ ->
              Tables.add_row t
                [ name; string_of_int blocks; string_of_int node_bytes; "-"; "-"; "-"; "-" ]
          | ix ->
              Workload.load ds ix;
              let cs = Workload.measure_cache env ix ~warm ~probes:probe in
              let wall = Workload.wall_ns_per_op env ix ~probes:probe in
              Hashtbl.replace results (name, blocks) cs.Workload.l2_per_op;
              Tables.add_row t
                [
                  name;
                  string_of_int blocks;
                  string_of_int node_bytes;
                  fmt_f cs.Workload.l2_per_op;
                  fmt_f (cs.Workload.sim_ns_per_op /. 1000.0);
                  fmt_f ~d:0 wall;
                  string_of_int (ix.Index.height ());
                ])
        schemes;
      Tables.add_separator t)
    [ 1; 2; 3; 4; 6 ];
  print_table ~name:"a1" t;
  (match Hashtbl.find_opt results ("pkB", 3) with
  | Some three ->
      let best =
        Hashtbl.fold
          (fun (n, _) v acc -> if String.equal n "pkB" then Float.min v acc else acc)
          results Float.infinity
      in
      shape_check "3-block pkB nodes within 20% of the best node size" (three <= best *. 1.20)
  | None -> ())

(* A2: bit- vs byte-granularity offsets (§5.2). *)
let run_a2 () =
  let n = Experiment.scaled_keys 200_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let key_len = 20 in
  Printf.printf "keys=%d, key size=%d B; pkB-tree\n\n" n key_len;
  let t =
    Tables.create
      ~columns:
        [
          ("entropy", Tables.Left);
          ("offsets", Tables.Left);
          ("l (bytes)", Tables.Right);
          ("L2 miss/op", Tables.Right);
          ("deref/op", Tables.Right);
          ("wall ns/op", Tables.Right);
          ("entry B", Tables.Right);
        ]
  in
  List.iter
    (fun alphabet ->
      let variants =
        List.concat_map
          (fun l ->
            [
              ( Printf.sprintf "byte-l%d" l,
                Index.B_tree,
                Layout.Partial { granularity = Partial_key.Byte; l_bytes = l } );
              ( Printf.sprintf "bit-l%d" l,
                Index.B_tree,
                Layout.Partial { granularity = Partial_key.Bit; l_bytes = l } );
            ])
          [ 0; 2; 4 ]
      in
      let builts = build_schemes ~key_len ~alphabet ~n ~n_warm:3000 ~n_probe variants in
      let walls = time_schemes builts in
      List.iter
        (fun b ->
          let cs = cache_stats b in
          let granularity = List.hd (String.split_on_char '-' b.name) in
          let l = String.sub b.name (String.index b.name 'l' + 1) 1 in
          Tables.add_row t
            [
              entropy_tag alphabet;
              granularity;
              l;
              fmt_f cs.Workload.l2_per_op;
              fmt_f cs.Workload.derefs_per_op;
              fmt_f ~d:0 (List.assoc b.name walls);
              string_of_int (Layout.entry_size (Layout.Partial { granularity = (if String.equal granularity "bit" then Partial_key.Bit else Partial_key.Byte); l_bytes = int_of_string l }));
            ])
        builts;
      Tables.add_separator t)
    [ low_entropy; high_entropy ];
  print_table ~name:"a2" t;
  print_endline
    "  note: bit offsets store the l bits immediately after the difference bit\n\
    \  (maximum distinguishing power); byte offsets store whole bytes from the\n\
    \  difference byte (simpler, the paper's default)."

(* A3: FINDNODE vs the naive linear search (Example 3.2 / §3.3). *)
let run_a3 () =
  let n = Experiment.scaled_keys 200_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let key_len = 20 in
  Printf.printf "keys=%d, key size=%d B; pkB-tree, byte offsets l=2\n\n" n key_len;
  let t =
    Tables.create
      ~columns:
        [
          ("entropy", Tables.Left);
          ("in-node search", Tables.Left);
          ("deref/op", Tables.Right);
          ("L2 miss/op", Tables.Right);
          ("wall ns/op", Tables.Right);
        ]
  in
  let rates = Hashtbl.create 8 in
  List.iter
    (fun alphabet ->
      let env = Workload.make_env () in
      let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
      let warm = Workload.probes ds ~seed:11 ~n:3000 () in
      let all = Workload.probes ds ~seed:12 ~n:(3000 + n_probe) () in
      let probe = Array.sub all 3000 n_probe in
      List.iter
        (fun (label, naive) ->
          let ix =
            Index.make ~naive_search:naive Index.B_tree
              (Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 })
              env.Workload.mem env.Workload.records
          in
          Workload.load ds ix;
          let cs = Workload.measure_cache env ix ~warm ~probes:probe in
          let wall = Workload.wall_ns_per_op env ix ~probes:probe in
          Hashtbl.replace rates (alphabet, label) cs.Workload.derefs_per_op;
          Tables.add_row t
            [
              entropy_tag alphabet;
              label;
              fmt_f ~d:3 cs.Workload.derefs_per_op;
              fmt_f cs.Workload.l2_per_op;
              fmt_f ~d:0 wall;
            ])
        [ ("FINDNODE (Fig. 5)", false); ("naive linear (simple)", true) ];
      Tables.add_separator t)
    [ low_entropy; high_entropy ];
  print_table ~name:"a3" t;
  List.iter
    (fun a ->
      shape_check
        (Printf.sprintf "FINDNODE needs fewer dereferences than naive at %s" (entropy_tag a))
        (Hashtbl.find rates (a, "FINDNODE (Fig. 5)")
        < Hashtbl.find rates (a, "naive linear (simple)")))
    [ low_entropy; high_entropy ]

(* A4: pk trees match direct trees with 4-byte keys in cache misses
   (§5.3's last bullet). *)
let run_a4 () =
  let n = Experiment.scaled_keys 400_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let alphabet = high_entropy in
  Printf.printf "keys=%d, entropy=%s\n\n" n (entropy_tag alphabet);
  let t =
    Tables.create
      ~columns:
        [
          ("scheme", Tables.Left);
          ("key B", Tables.Right);
          ("L2 miss/op", Tables.Right);
          ("height", Tables.Right);
        ]
  in
  (* Direct trees on 4-byte keys... *)
  let direct4 =
    build_schemes ~key_len:4 ~alphabet ~n ~n_warm:3000 ~n_probe
      [
        ("B-direct-4B", Index.B_tree, Layout.Direct { key_len = 4 });
        ("T-direct-4B", Index.T_tree, Layout.Direct { key_len = 4 });
      ]
  in
  (* ...versus pk trees on 28-byte keys. *)
  let pk28 =
    build_schemes ~key_len:28 ~alphabet ~n ~n_warm:3000 ~n_probe
      [
        ("pkB-28B", Index.B_tree, Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 });
        ("pkT-28B", Index.T_tree, Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 });
      ]
  in
  let stats =
    List.map
      (fun b ->
        let cs = cache_stats b in
        Tables.add_row t
          [
            b.name;
            (if String.length b.name > 4 && String.equal (String.sub b.name (String.length b.name - 3) 3) "-4B"
             then "4" else "28");
            fmt_f cs.Workload.l2_per_op;
            string_of_int (b.ix.Index.height ());
          ];
        (b.name, cs.Workload.l2_per_op))
      (direct4 @ pk28)
  in
  print_table ~name:"a4" t;
  let get n = List.assoc n stats in
  shape_check "pkB on 28-byte keys within 35% of B-direct on 4-byte keys"
    (get "pkB-28B" <= get "B-direct-4B" *. 1.35);
  shape_check "pkT on 28-byte keys within 35% of T-direct on 4-byte keys"
    (get "pkT-28B" <= get "T-direct-4B" *. 1.35)

(* A5: TLB pressure with 8 KiB pages vs 4 MiB superpages (§5.1). *)
let run_a5 () =
  let n = Experiment.scaled_keys 200_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let key_len = 20 and alphabet = high_entropy in
  Printf.printf "keys=%d; pkB lookups; 64-entry data TLB\n\n" n;
  let t =
    Tables.create
      ~columns:
        [
          ("pages", Tables.Left);
          ("TLB miss/op", Tables.Right);
          ("L2 miss/op", Tables.Right);
          ("sim us/op", Tables.Right);
        ]
  in
  let res = Hashtbl.create 4 in
  List.iter
    (fun (label, tlb) ->
      let builts =
        build_schemes ~tlb ~key_len ~alphabet ~n ~n_warm:3000 ~n_probe
          [ ("pkB", Index.B_tree, Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 }) ]
      in
      List.iter
        (fun b ->
          let cs = cache_stats b in
          Hashtbl.replace res label cs.Workload.tlb_per_op;
          Tables.add_row t
            [
              label;
              fmt_f ~d:3 cs.Workload.tlb_per_op;
              fmt_f cs.Workload.l2_per_op;
              fmt_f (cs.Workload.sim_ns_per_op /. 1000.0);
            ])
        builts)
    [ ("8 KiB", Machine.default_tlb); ("4 MiB superpages", Machine.superpage_tlb) ];
  print_table ~name:"a5" t;
  shape_check "superpages effectively eliminate TLB misses (>20x reduction)"
    (Hashtbl.find res "4 MiB superpages" *. 20.0 < Hashtbl.find res "8 KiB")

(* A6: mixed OLTP updates (maintenance cost of §4's update rules). *)
let run_a6 () =
  let n = Experiment.scaled_keys 60_000 in
  let ops = Experiment.scaled_lookups 60_000 in
  let key_len = 20 and alphabet = high_entropy in
  Printf.printf "keys=%d, ops=%d, mix=50%% lookup / 25%% insert / 25%% delete\n\n" n ops;
  let t =
    Tables.create
      ~columns:
        [
          ("scheme", Tables.Left);
          ("ns/op (mixed)", Tables.Right);
          ("final keys", Tables.Right);
          ("valid", Tables.Left);
        ]
  in
  List.iter
    (fun (name, structure, scheme) ->
      let env = Workload.make_env () in
      let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
      let ix = Index.make structure scheme env.Workload.mem env.Workload.records in
      Workload.load ds ix;
      let r =
        Workload.run_mix env ix ds ~lookup_pct:50 ~insert_pct:25 ~delete_pct:25 ~ops ()
      in
      let valid = try ix.Index.validate (); "ok" with Failure m -> "FAIL: " ^ m in
      Tables.add_row t
        [
          name;
          fmt_f ~d:0 r.Workload.wall_ns_per_mixed_op;
          Tables.fmt_int r.Workload.final_count;
          valid;
        ])
    (Index.paper_schemes ~key_len ());
  print_table ~name:"a6" t;
  print_endline
    "  note: partial-key maintenance (recomputing pk entries on insert, delete,\n\
    \  split, merge and rotation) reads full keys from records, so pk updates\n\
    \  cost more than direct updates — the paper's trade for faster lookups."

(* A7: the hybrid of §6 across key sizes. *)
let run_a7 () =
  let n = Experiment.scaled_keys 300_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let alphabet = high_entropy in
  Printf.printf "keys=%d, entropy=%s\n\n" n (entropy_tag alphabet);
  let t =
    Tables.create
      ~columns:
        [
          ("key B", Tables.Right);
          ("scheme", Tables.Left);
          ("wall ns/op", Tables.Right);
          ("L2 miss/op", Tables.Right);
          ("B/key", Tables.Right);
        ]
  in
  let results = Hashtbl.create 32 in
  List.iteri
    (fun idx key_len ->
      if idx > 0 then Tables.add_separator t;
      let env = Workload.make_env () in
      let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
      let warm = Workload.probes ds ~seed:11 ~n:3000 () in
      let all = Workload.probes ds ~seed:12 ~n:(3000 + n_probe) () in
      let probe = Array.sub all 3000 n_probe in
      let hybrid = Hybrid.make ~key_len:(Some key_len) Index.B_tree env.Workload.mem env.Workload.records in
      let bdirect = Index.make Index.B_tree (Layout.Direct { key_len }) env.Workload.mem env.Workload.records in
      let pkb =
        Index.make Index.B_tree
          (Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 })
          env.Workload.mem env.Workload.records
      in
      List.iter
        (fun (name, ix) ->
          Workload.load ds ix;
          let cs = Workload.measure_cache env ix ~warm ~probes:probe in
          let wall = Workload.wall_ns_per_op env ix ~probes:probe in
          Hashtbl.replace results (name, key_len) cs.Workload.l2_per_op;
          Tables.add_row t
            [
              string_of_int key_len;
              (if String.equal name "hybrid" then ix.Index.tag else name);
              fmt_f ~d:0 wall;
              fmt_f cs.Workload.l2_per_op;
              fmt_f ~d:1
                (float_of_int (ix.Index.space_bytes ()) /. float_of_int (ix.Index.count ()));
            ])
        [ ("hybrid", hybrid); ("B-direct", bdirect); ("pkB", pkb) ])
    [ 4; 8; 20; 36 ];
  print_table ~name:"a7" t;
  (* Wall clock on identical structures is noisy; the deterministic
     check is that the hybrid's cache behaviour equals the better
     scheme's at every key size. *)
  shape_check "hybrid's misses track the better of B-direct/pkB at every key size"
    (List.for_all
       (fun k ->
         let h = Hashtbl.find results ("hybrid", k) in
         let best =
           Float.min
             (Hashtbl.find results ("B-direct", k))
             (Hashtbl.find results ("pkB", k))
         in
         h <= best +. 0.02)
       [ 4; 8; 20; 36 ])

(* A8: partial keys vs prefix compression (the §2 design argument).
   The prefix B+-tree never dereferences a record but pays with
   variable-size entries and distribution-dependent branching; partial
   keys keep fixed entries and bounded heights at the cost of rare
   dereferences. *)
let run_a8 () =
  let n = Experiment.scaled_keys 200_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let key_len = 20 in
  Printf.printf "keys=%d, key size=%d B\n\n" n key_len;
  let t =
    Tables.create
      ~columns:
        [
          ("entropy", Tables.Left);
          ("index", Tables.Left);
          ("L2 miss/op", Tables.Right);
          ("deref/op", Tables.Right);
          ("wall ns/op", Tables.Right);
          ("B/key", Tables.Right);
          ("height", Tables.Right);
          ("max sep B", Tables.Right);
        ]
  in
  let misses = Hashtbl.create 16 in
  List.iter
    (fun alphabet ->
      let env = Workload.make_env () in
      let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
      let warm = Workload.probes ds ~seed:11 ~n:3000 () in
      let all = Workload.probes ds ~seed:12 ~n:(3000 + n_probe) () in
      let probe = Array.sub all 3000 n_probe in
      (* The prefix tree is kept as a raw handle so max_separator_len is
         reachable; its Index-compatible measurements go through the
         same wrapper as the others. *)
      let prefix_raw =
        Pk_core.Prefix_btree.create env.Workload.mem env.Workload.records
          Pk_core.Prefix_btree.default_config
      in
      let indexes =
        [
          ("prefix-B+", `Prefix prefix_raw);
          ( "pkB",
            `Ix
              (Index.make Index.B_tree
                 (Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 })
                 env.Workload.mem env.Workload.records) );
          ( "B-direct",
            `Ix
              (Index.make Index.B_tree (Layout.Direct { key_len }) env.Workload.mem
                 env.Workload.records) );
        ]
      in
      List.iter
        (fun (name, h) ->
          let lookup, height, space, count, visits_reset, visits, derefs =
            match h with
            | `Prefix p ->
                Array.iteri
                  (fun i k ->
                    if not (Pk_core.Prefix_btree.insert p k ~rid:ds.Workload.rids.(i)) then
                      failwith "a8: prefix insert rejected")
                  ds.Workload.keys;
                ( Pk_core.Prefix_btree.lookup p,
                  (fun () -> Pk_core.Prefix_btree.height p),
                  (fun () -> Pk_core.Prefix_btree.space_bytes p),
                  (fun () -> Pk_core.Prefix_btree.count p),
                  (fun () -> Pk_core.Prefix_btree.reset_counters p),
                  (fun () -> Pk_core.Prefix_btree.node_visits p),
                  fun () -> 0 )
            | `Ix ix ->
                Workload.load ds ix;
                ( ix.Index.lookup,
                  ix.Index.height,
                  ix.Index.space_bytes,
                  ix.Index.count,
                  ix.Index.reset_counters,
                  ix.Index.node_visits,
                  ix.Index.deref_count )
          in
          (* Inline steady-state measurement (the Workload helper wants
             an Index.t; these are bare closures). *)
          let cache = env.Workload.cache in
          Pk_mem.Mem.set_tracing env.Workload.mem true;
          Cachesim.flush cache;
          Array.iter (fun k -> ignore (lookup k)) warm;
          visits_reset ();
          let d0 = derefs () in
          let before = Cachesim.snapshot cache in
          Array.iter (fun k -> ignore (lookup k)) probe;
          let after = Cachesim.snapshot cache in
          Pk_mem.Mem.set_tracing env.Workload.mem false;
          let d = Cachesim.diff ~before ~after in
          let per x = float_of_int x /. float_of_int (Array.length probe) in
          let l2 = per (Cachesim.misses d ~level:"L2") in
          let deref = per (derefs () - d0) in
          let wall =
            Array.fold_left Float.min Float.infinity
              (Measure.repeat (fun () -> Array.iter (fun k -> ignore (lookup k)) probe))
            /. float_of_int (Array.length probe)
          in
          ignore (visits ());
          Hashtbl.replace misses (alphabet, name) l2;
          let max_sep =
            match h with
            | `Prefix p -> string_of_int (Pk_core.Prefix_btree.max_separator_len p)
            | `Ix _ -> "-"
          in
          Tables.add_row t
            [
              entropy_tag alphabet;
              name;
              fmt_f l2;
              fmt_f deref;
              fmt_f ~d:0 wall;
              fmt_f ~d:1 (float_of_int (space ()) /. float_of_int (count ()));
              string_of_int (height ());
              max_sep;
            ])
        indexes;
      Tables.add_separator t)
    [ low_entropy; high_entropy ];
  print_table ~name:"a8" t;
  let get a n = Hashtbl.find misses (a, n) in
  (* §2's actual contrasts: prefix compression improves the branching
     factor over direct storage, but for random keys the prefix common
     to a whole node is short, so partial keys (which factor out what
     adjacent pairs share — "typically a longer prefix than is common
     to the whole node") are far more compact and at least as good on
     misses. *)
  shape_check "pkB misses <= prefix-B+ misses (within 10%)"
    (List.for_all (fun a -> get a "pkB" <= get a "prefix-B+" *. 1.10) [ low_entropy; high_entropy ]);
  print_endline
    "  note: on uniform keys the whole-node common prefix is short, so the\n\
    \  prefix B+-tree's space ends up near direct storage while pkB stays at\n\
    \  ~23 B/key — exactly the paper's point (1) in §2.  With long shared\n\
    \  prefixes (e.g. URLs) prefix compression recovers; see\n\
    \  test_prefix_btree.ml and examples/url_dictionary.ml."

(* A9: batched access paths.  Group descent sorts a probe batch once
   and partitions it across children level by level, so each node on a
   shared root-to-leaf path is visited (and missed) once per batch
   instead of once per probe; bottom-up bulk load builds the same
   trees level by level from sorted input instead of descending per
   key.  The cache column is "contended": the simulated cache is
   flushed before every batch, modelling an index evicted between
   bursts, which is where amortisation shows up cleanly. *)
let run_a9 () =
  let n = Experiment.scaled_keys 200_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let key_len = 20 and alphabet = high_entropy in
  let batch_sizes =
    match Experiment.env_int "PK_BATCH" with Some b -> [ b ] | None -> [ 1; 8; 64; 512 ]
  in
  let fill = Option.value (Experiment.env_float "PK_FILL") ~default:1.0 in
  Printf.printf "keys=%d, key size=%d B, entropy=%s, bulk fill=%.2f, batches={%s}\n\n" n key_len
    (entropy_tag alphabet) fill
    (String.concat ", " (List.map string_of_int batch_sizes));
  let lt =
    Tables.create
      ~columns:
        [
          ("scheme", Tables.Left);
          ("batch", Tables.Right);
          ("L2 miss/op", Tables.Right);
          ("sim us/op", Tables.Right);
          ("visits/op", Tables.Right);
          ("wall ns/op", Tables.Right);
        ]
  in
  let bt =
    Tables.create
      ~columns:
        [
          ("scheme", Tables.Left);
          ("incr ms", Tables.Right);
          ("bulk ms", Tables.Right);
          ("speedup", Tables.Right);
          ("incr h", Tables.Right);
          ("bulk h", Tables.Right);
          ("valid", Tables.Left);
        ]
  in
  let misses = Hashtbl.create 64 in
  let builds = Hashtbl.create 16 in
  let json_rows = ref [] in
  (* Every registered scheme (the paper six, B+/prefix, hybrid, and any
     registered variant), or the PK_SCHEMES comma-separated tag subset —
     unknown tags abort with the valid-tag list. *)
  let schemes =
    match Sys.getenv_opt "PK_SCHEMES" with
    | None | Some "" ->
        List.map
          (fun (info : Index.Registry.info) ->
            ( info.Index.Registry.tag,
              fun (env : Workload.env) ->
                info.Index.Registry.build ~key_len env.Workload.mem env.Workload.records ))
          (registry_schemes ())
    | Some tags -> builders_by_tag ~key_len (String.split_on_char ',' tags)
  in
  List.iteri
    (fun si (name, mk) ->
      if si > 0 then Tables.add_separator lt;
      let env = Workload.make_env () in
      let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
      let warm = Workload.probes ds ~seed:11 ~n:3000 () in
      let all = Workload.probes ds ~seed:12 ~n:(3000 + n_probe) () in
      let probe = Array.sub all 3000 n_probe in
      let time_ms f =
        Gc.full_major ();
        snd (Measure.time f) *. 1e3
      in
      let ix_inc = mk env in
      let incr_ms = time_ms (fun () -> Workload.load ds ix_inc) in
      let ix_bulk = mk env in
      let bulk_ms = time_ms (fun () -> Workload.load_sorted ~fill ds ix_bulk) in
      let valid =
        try
          ix_bulk.Index.validate ();
          if ix_bulk.Index.count () <> n then
            Printf.sprintf "FAIL: count %d <> %d" (ix_bulk.Index.count ()) n
          else "ok"
        with Failure m -> "FAIL: " ^ m
      in
      Hashtbl.replace builds name (incr_ms, bulk_ms, valid);
      Tables.add_row bt
        [
          name;
          fmt_f ~d:1 incr_ms;
          fmt_f ~d:1 bulk_ms;
          fmt_f ~d:1 (incr_ms /. bulk_ms) ^ "x";
          string_of_int (ix_inc.Index.height ());
          string_of_int (ix_bulk.Index.height ());
          valid;
        ];
      let batch_json =
        List.map
          (fun b ->
            let cs =
              Workload.measure_cache_batched env ix_inc ~batch:b ~contended:true ~warm
                ~probes:probe ()
            in
            let wall = Workload.wall_ns_per_op ~batch:b env ix_inc ~probes:probe in
            Hashtbl.replace misses (name, b) cs.Workload.l2_per_op;
            Tables.add_row lt
              [
                name;
                string_of_int b;
                fmt_f cs.Workload.l2_per_op;
                fmt_f (cs.Workload.sim_ns_per_op /. 1000.0);
                fmt_f cs.Workload.visits_per_op;
                fmt_f ~d:0 wall;
              ];
            Json_out.Obj
              [
                ("batch", Json_out.Int b);
                ("l2_misses_per_lookup", Json_out.Float cs.Workload.l2_per_op);
                ("sim_ns_per_lookup", Json_out.Float cs.Workload.sim_ns_per_op);
                ("visits_per_lookup", Json_out.Float cs.Workload.visits_per_op);
                ("wall_ns_per_lookup", Json_out.Float wall);
              ])
          batch_sizes
      in
      json_rows :=
        Json_out.Obj
          [
            ("scheme", Json_out.String name);
            ( "build",
              Json_out.Obj
                [
                  ("incremental_ms", Json_out.Float incr_ms);
                  ("bulk_ms", Json_out.Float bulk_ms);
                  ("fill", Json_out.Float fill);
                  ("valid", Json_out.Bool (String.equal valid "ok"));
                  ("height_incremental", Json_out.Int (ix_inc.Index.height ()));
                  ("height_bulk", Json_out.Int (ix_bulk.Index.height ()));
                ] );
            ("batches", Json_out.List batch_json);
          ]
        :: !json_rows)
    schemes;
  Printf.printf "batched lookups (contended cache):\n";
  print_table ~name:"a9-batch" lt;
  Printf.printf "\nconstruction, %s keys each:\n" (Tables.fmt_int n);
  print_table ~name:"a9-build" bt;
  Json_out.write_bench ~id:"a9"
    ~params:
      [
        ("keys", Json_out.Int n);
        ("lookups", Json_out.Int n_probe);
        ("key_len", Json_out.Int key_len);
        ("alphabet", Json_out.Int alphabet);
        ("fill", Json_out.Float fill);
        ("batch_sizes", Json_out.List (List.map (fun b -> Json_out.Int b) batch_sizes));
        ("contended", Json_out.Bool true);
      ]
    ~rows:(List.rev !json_rows);
  (if List.mem 1 batch_sizes && List.mem 64 batch_sizes then
     List.iter
       (fun s ->
         if Hashtbl.mem misses (s, 1) then
           shape_check
             (Printf.sprintf "batch-64 lookups miss less than batch-1 for %s" s)
             (Hashtbl.find misses (s, 64) < Hashtbl.find misses (s, 1)))
       [ "pkB"; "B-direct" ]);
  List.iter
    (fun s ->
      if Hashtbl.mem builds s then begin
        let incr_ms, bulk_ms, valid = Hashtbl.find builds s in
        shape_check
          (Printf.sprintf "bottom-up bulk load beats incremental build for %s" s)
          (String.equal valid "ok" && bulk_ms < incr_ms)
      end)
    [ "pkB"; "B-direct" ];
  shape_check "every bulk-loaded index passes deep validation"
    (Hashtbl.fold (fun _ (_, _, v) acc -> acc && String.equal v "ok") builds true)

(* A10: hierarchical cache/TLB-conscious node placement.  Bulk loads
   under {!Layout.blocked_default} pack parent+children families into
   cache-line / page / hugepage blocks (FAST-style blocking) instead of
   the flat level-by-level bump order.  The trees are identical in
   content — same nodes, same search paths, byte-identical dereference
   counts — so any miss delta is pure placement.  On an index several
   times the TLB reach, a flat descent touches roughly one distinct
   page per level; blocking folds each bottom family into its parent's
   page and trims TLB (and some L2) misses per lookup.  The modern
   preset asks whether the effect survives a 2020s hierarchy, and the
   2 MiB-hugepage TLB shows large pages erasing most of what blocking
   buys — the same conclusion as the superpage ablation (A5). *)
let run_a10 () =
  let n = Experiment.scaled_keys 1_500_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let key_len = 20 and alphabet = high_entropy in
  let fill = Option.value (Experiment.env_float "PK_FILL") ~default:1.0 in
  let configs =
    match machine_of_env () with
    | Some m -> [ (m, Machine.default_tlb, "8K") ]
    | None ->
        [
          (Machine.ultra30, Machine.default_tlb, "8K");
          (Machine.ultra60, Machine.default_tlb, "8K");
          (Machine.modern, Machine.default_tlb, "8K");
          (Machine.modern, Machine.hugepage_tlb, "2M-huge");
        ]
  in
  let pairs =
    [ ("pkB", "pkB-blocked"); ("pkT", "pkT-blocked"); ("B+/prefix", "B+/prefix-blocked") ]
  in
  ensure_registry ();
  Printf.printf "keys=%d, key size=%d B, entropy=%s, fill=%.2f, probes=%d\n\n" n key_len
    (entropy_tag alphabet) fill n_probe;
  let t =
    Tables.create
      ~columns:
        [
          ("machine", Tables.Left);
          ("tlb", Tables.Left);
          ("scheme", Tables.Left);
          ("L2 miss/op", Tables.Right);
          ("TLB miss/op", Tables.Right);
          ("TLB+L2/op", Tables.Right);
          ("sim us/op", Tables.Right);
          ("deref/op", Tables.Right);
        ]
  in
  let json_rows = ref [] in
  let results = Hashtbl.create 32 in
  (* (machine, tlb tag, scheme) -> stats *)
  List.iteri
    (fun ci (m, tlb, tlb_tag) ->
      if ci > 0 then Tables.add_separator t;
      let env = Workload.make_env ~machine:m ~tlb () in
      let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
      let sorted = Workload.sorted_pairs ds in
      (* The same seeds for every machine and variant: every index
         replays the identical probe trace. *)
      let warm = Workload.probes ds ~seed:11 ~n:3000 () in
      let all_p = Workload.probes ds ~seed:12 ~n:(3000 + n_probe) () in
      let probe = Array.sub all_p 3000 n_probe in
      List.iter
        (fun tag ->
          let ix = Index.Registry.build ~key_len tag env.Workload.mem env.Workload.records in
          ix.Index.of_sorted ~fill sorted;
          let cs = Workload.measure_cache env ix ~warm ~probes:probe in
          Hashtbl.replace results (m.Machine.machine_name, tlb_tag, tag) cs;
          let layout_json =
            match ix.Index.layout () with
            | Some p when not (Layout.Placement.is_flat p) ->
                [
                  ("layout_levels", Json_out.Int (Layout.Placement.level_count p));
                  ("layout_extent_bytes", Json_out.Int (Layout.Placement.extent p));
                  ("layout_padding_bytes", Json_out.Int (Layout.Placement.padding p));
                ]
            | _ -> []
          in
          Tables.add_row t
            [
              m.Machine.machine_name;
              tlb_tag;
              tag;
              fmt_f cs.Workload.l2_per_op;
              fmt_f cs.Workload.tlb_per_op;
              fmt_f (cs.Workload.l2_per_op +. cs.Workload.tlb_per_op);
              fmt_f (cs.Workload.sim_ns_per_op /. 1000.0);
              fmt_f cs.Workload.derefs_per_op;
            ];
          json_rows :=
            Json_out.Obj
              ([
                 ("machine", Json_out.String m.Machine.machine_name);
                 ("tlb", Json_out.String tlb_tag);
                 ("scheme", Json_out.String tag);
                 ("l2_misses_per_lookup", Json_out.Float cs.Workload.l2_per_op);
                 ("tlb_misses_per_lookup", Json_out.Float cs.Workload.tlb_per_op);
                 ( "tlb_plus_l2_per_lookup",
                   Json_out.Float (cs.Workload.l2_per_op +. cs.Workload.tlb_per_op) );
                 ("sim_ns_per_lookup", Json_out.Float cs.Workload.sim_ns_per_op);
                 ("derefs_per_lookup", Json_out.Float cs.Workload.derefs_per_op);
               ]
              @ layout_json)
            :: !json_rows)
        (List.concat_map (fun (a, b) -> [ a; b ]) pairs))
    configs;
  print_table ~name:"a10" t;
  Json_out.write_bench ~id:"a10"
    ~params:
      [
        ("keys", Json_out.Int n);
        ("lookups", Json_out.Int n_probe);
        ("key_len", Json_out.Int key_len);
        ("alphabet", Json_out.Int alphabet);
        ("fill", Json_out.Float fill);
      ]
    ~rows:(List.rev !json_rows);
  (* Placement must be behaviour-preserving: byte-identical deref
     counts on the identical probe trace, every machine and pair. *)
  shape_check "blocked placement leaves dereference counts byte-identical"
    (List.for_all
       (fun (m, _, tlb_tag) ->
         List.for_all
           (fun (ftag, btag) ->
             let f = Hashtbl.find results (m.Machine.machine_name, tlb_tag, ftag) in
             let b = Hashtbl.find results (m.Machine.machine_name, tlb_tag, btag) in
             f.Workload.derefs_per_op = b.Workload.derefs_per_op)
           pairs)
       configs);
  (* The headline: blocking cuts (TLB+L2) misses per pkB lookup on the
     small-page configurations. *)
  List.iter
    (fun (m, _, tlb_tag) ->
      if String.equal tlb_tag "8K" then begin
        let f = Hashtbl.find results (m.Machine.machine_name, tlb_tag, "pkB") in
        let b = Hashtbl.find results (m.Machine.machine_name, tlb_tag, "pkB-blocked") in
        shape_check
          (Printf.sprintf "blocked pkB (TLB+L2)/lookup < flat on %s" m.Machine.machine_name)
          (b.Workload.l2_per_op +. b.Workload.tlb_per_op
          < f.Workload.l2_per_op +. f.Workload.tlb_per_op)
      end)
    configs

(* A11: sharded multicore serving — lookup throughput scaling over
   OCaml domains on a mixed read/write workload.  The benchmark host
   may expose a single hardware core, where wall clock over
   concurrently spawned domains cannot show scaling; instead each
   per-domain shard group's work is timed solo and the D-domain figure
   is the critical path: total ops / max group time — the exact
   aggregation for share-nothing shards, where group times add within
   a domain and the slowest domain bounds the run (method recorded in
   the JSON params and EXPERIMENTS.md).  A separate genuinely
   concurrent pass (reader domains vs a churning writer) exercises the
   optimistic validated-read protocol and records the restart
   count. *)
module Shard = Pk_shard.Shard

let run_a11 () =
  let n = Experiment.scaled_keys 400_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let key_len = 16 and alphabet = high_entropy in
  let shards = 8 in
  let churn = 48 (* delete+re-insert pairs per shard per repeat: the write share *) in
  let repeats = 24 in
  let domain_counts = [ 1; 2; 4; 8 ] in
  ensure_registry ();
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
  let sorted = Workload.sorted_pairs ds in
  let eng =
    Shard.Engine.create ~tag:"a11"
      ~partition:(Shard.Partition.hash shards)
      (fun _ -> Index.Registry.build ~key_len "pkB" env.Workload.mem env.Workload.records)
  in
  let ops = Shard.Engine.ops eng in
  ops.Index.of_sorted ~fill:0.9 sorted;
  Printf.printf "keys=%d, key size=%d B, entropy=%s, shards=%d, probes=%d x%d, churn=%d/shard\n\n"
    n key_len (entropy_tag alphabet) shards n_probe repeats churn;
  (* Scatter the probe trace per shard, exactly as the scheduler would. *)
  let probes = Workload.probes ds ~seed:12 ~n:n_probe () in
  let by_shard = Array.make shards [] in
  Array.iter
    (fun k ->
      let s = Shard.Engine.route eng k in
      by_shard.(s) <- k :: by_shard.(s))
    probes;
  let packed = Array.map (fun l -> Array.of_list (List.rev l)) by_shard in
  let out = Array.map (fun p -> Array.make (Array.length p) (-1)) packed in
  (* Each shard's write share: the first [churn] resident keys it owns,
     deleted and re-inserted with their original rid so every repeat
     (and the whole measurement) leaves the index unchanged. *)
  let churn_keys = Array.make shards [] in
  Array.iter
    (fun (k, rid) ->
      let s = Shard.Engine.route eng k in
      if List.length churn_keys.(s) < churn then churn_keys.(s) <- (k, rid) :: churn_keys.(s))
    sorted;
  let churn_keys = Array.map Array.of_list churn_keys in
  let serve_shard i =
    let sub = Shard.Engine.sub eng i in
    sub.Index.lookup_into packed.(i) out.(i);
    Array.iter
      (fun (k, rid) ->
        ignore (ops.Index.delete k : bool);
        ignore (ops.Index.insert k ~rid : bool))
      churn_keys.(i)
  in
  (* Per-shard solo times: [repeats] serves at the fastest serve's
     cost. *)
  let shard_ns =
    Array.init shards (fun i ->
        let runs = Measure.repeat ~n:repeats (fun () -> serve_shard i) in
        Array.fold_left Float.min Float.infinity runs *. float_of_int repeats)
  in
  let total_lookups = repeats * n_probe in
  let total_mutations = repeats * 2 * Array.fold_left (fun a c -> a + Array.length c) 0 churn_keys in
  let total_ops = total_lookups + total_mutations in
  let critical_path d =
    let group = Array.make d 0.0 in
    Array.iteri (fun i ns -> group.(i mod d) <- group.(i mod d) +. ns) shard_ns;
    Array.fold_left max 0.0 group
  in
  let crit1 = critical_path 1 in
  let t =
    Tables.create
      ~columns:
        [
          ("domains", Tables.Right);
          ("crit-path ms", Tables.Right);
          ("Mop/s", Tables.Right);
          ("Mlookup/s", Tables.Right);
          ("speedup", Tables.Right);
        ]
  in
  let json_rows = ref [] in
  let speedups = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let crit = critical_path d in
      let ops_s = float_of_int total_ops *. 1e9 /. crit in
      let lk_s = float_of_int total_lookups *. 1e9 /. crit in
      let speedup = crit1 /. crit in
      Hashtbl.replace speedups d speedup;
      Tables.add_row t
        [
          string_of_int d;
          fmt_f (crit /. 1e6);
          fmt_f (ops_s /. 1e6);
          fmt_f (lk_s /. 1e6);
          fmt_f speedup;
        ];
      json_rows :=
        Json_out.Obj
          [
            ("domains", Json_out.Int d);
            ("critical_path_ms", Json_out.Float (crit /. 1e6));
            ("ops_per_sec", Json_out.Float ops_s);
            ("lookup_ops_per_sec", Json_out.Float lk_s);
            ("speedup_vs_1", Json_out.Float speedup);
          ]
        :: !json_rows)
    domain_counts;
  print_table ~name:"a11" t;
  (* The genuinely concurrent pass: reader domains validate a frozen
     slice against its known rids while the writer churns other keys.
     Every validation failure restarts the read — the observable cost
     of the optimistic protocol. *)
  let frozen = Array.sub sorted 0 (min 2048 (Array.length sorted)) in
  let n_froz = Array.length frozen in
  let wr_lo = n_froz and wr_n = min 256 (Array.length sorted - n_froz) in
  let stop = Atomic.make false in
  let reads_total = Atomic.make 0 in
  let spawn_reader seed =
    Domain.spawn (fun () ->
        let rd = Shard.Engine.reader ~seed eng in
        let reads = ref 0 in
        let bad = ref 0 in
        let i = ref 0 in
        (* progress floor: finish a minimum slice even if the writer
           drains first on a single-core host *)
        while (not (Atomic.get stop)) || !reads < 64 do
          let k, rid = frozen.(!i mod n_froz) in
          (match Shard.Engine.read rd k with Some r when r = rid -> () | _ -> incr bad);
          incr reads;
          Atomic.incr reads_total;
          incr i
        done;
        let restarts = Shard.Engine.restarts rd in
        Shard.Engine.release_reader rd;
        (!reads, restarts, !bad))
  in
  let readers = [ spawn_reader 101; spawn_reader 202 ] in
  let rounds = ref 0 in
  while Atomic.get reads_total < 1024 && !rounds < 200_000 do
    incr rounds;
    let k, rid = sorted.(wr_lo + (!rounds mod wr_n)) in
    ignore (ops.Index.delete k : bool);
    ignore (ops.Index.insert k ~rid : bool)
  done;
  Atomic.set stop true;
  let joined = List.map Domain.join readers in
  let reads_checked = List.fold_left (fun a (r, _, _) -> a + r) 0 joined in
  let bad_reads = List.fold_left (fun a (_, _, b) -> a + b) 0 joined in
  let restarts = List.fold_left (fun a (_, r, _) -> a + r) 0 joined in
  (* If the scheduler never interleaved the domains (possible on one
     core), force one protocol restart deterministically: pin, mutate
     the pinned shard, read again. *)
  let restarts =
    if restarts > 0 then restarts
    else begin
      let rd = Shard.Engine.reader ~seed:999 eng in
      let k0, rid0 = frozen.(0) in
      ignore (Shard.Engine.read rd k0 : int option);
      ignore (ops.Index.delete k0 : bool);
      ignore (ops.Index.insert k0 ~rid:rid0 : bool);
      ignore (Shard.Engine.read rd k0 : int option);
      let r = Shard.Engine.restarts rd in
      Shard.Engine.release_reader rd;
      r
    end
  in
  Printf.printf "\nconcurrent pass: %d reads over %d writer rounds, %d restarts, %d bad reads\n"
    reads_checked !rounds restarts bad_reads;
  ops.Index.validate ();
  Json_out.write_bench ~id:"a11"
    ~params:
      [
        ("keys", Json_out.Int n);
        ("lookups", Json_out.Int total_lookups);
        ("mutations", Json_out.Int total_mutations);
        ("key_len", Json_out.Int key_len);
        ("alphabet", Json_out.Int alphabet);
        ("shards", Json_out.Int shards);
        ("scheme", Json_out.String "pkB");
        ("partition", Json_out.String "hash");
        ( "method",
          Json_out.String
            "critical-path aggregation: per-shard serve times measured solo, D-domain time = max \
             over domain groups (shard i -> domain i mod D) of the group's summed time; exact for \
             share-nothing shards and independent of host core count" );
        ("reader_restarts", Json_out.Int restarts);
        ("reads_checked", Json_out.Int reads_checked);
      ]
    ~rows:(List.rev !json_rows);
  shape_check "8-domain lookup throughput >= 4x the 1-domain figure"
    (Hashtbl.find speedups 8 >= 4.0);
  shape_check "2-domain speedup above 1" (Hashtbl.find speedups 2 > 1.0);
  shape_check "reader restarts observable (pk_lock_restarts_total)" (restarts > 0);
  shape_check "no bad validated reads under churn" (bad_reads = 0);
  shape_check "every probe resolved on every shard"
    (Array.for_all (fun o -> Array.for_all (fun r -> r >= 0) o) out)

(* A12: the rebuild-at-scale pipeline — parallel compressed-key sort
   into gapped leaves.  Three phases:

   1. Sort scaling on 1M+ unsorted entries.  As in A11 the host may
      expose one hardware core, so wall clock over spawned domains
      cannot show scaling; instead each per-domain run's sort is timed
      solo and the D-domain figure is the critical path: max over runs
      (one run per domain) plus the sequential k-way merge, measured
      as the full-call time minus the summed run times.  Exact for the
      pipeline's share-nothing runs, independent of host core count.
   2. What the gap buys: post-gapped-bulk-load insert throughput vs
      the same inserts into a steady-state incrementally grown tree
      (the acceptance bar is within 2x), with a gap-0 contrast row.
   3. Round-trip: rebuild(index) must answer byte-equal lookups for
      every registered scheme tag, sharded and blocked included.

   The pipeline is {!Keysort.sort_entries} over the (key, rid) pairs,
   then one gapped [of_sorted]; [rebuild] extracts a source index
   through [iter]. *)
module Keysort = Pk_core.Keysort

let rebuild ?domains ~gap ~(into : Index.t) (src : Index.t) =
  let entries = Array.make (src.Index.count ()) (Bytes.empty, 0) and i = ref 0 in
  src.Index.iter (fun ~key ~rid ->
      entries.(!i) <- (key, rid);
      incr i);
  let sorted, _ = Keysort.sort_entries ?domains entries in
  if Array.length sorted > 0 then into.Index.of_sorted ~gap ~fill:(Layout.gap_fill ~gap) sorted

let run_a12 () =
  let n = Experiment.scaled_keys 1_000_000 in
  let key_len = 16 and alphabet = high_entropy in
  let domain_counts = [ 1; 2; 4; 8 ] in
  ensure_registry ();
  Shard.ensure_registered ();
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
  let store = env.Workload.records in
  let sorted = Workload.sorted_pairs ds in
  let entries = Array.copy sorted in
  let rng = Pk_util.Prng.create 712L in
  (* Fisher–Yates over the pairs: the sort stage gets unsorted input. *)
  for i = Array.length entries - 1 downto 1 do
    let j = Pk_util.Prng.int rng (i + 1) in
    let t = entries.(i) in
    entries.(i) <- entries.(j);
    entries.(j) <- t
  done;
  Printf.printf "keys=%d, key size=%d B, entropy=%s, scheme=pkB\n\n" n key_len
    (entropy_tag alphabet);
  (* {3 Phase 1: sort scaling, critical-path aggregation}

     [spawn:false] runs the exact library code path — same run
     decomposition, same merge — in one domain, so the full-call time
     decomposes as prologue + sum(run sorts) + merge without the
     cross-domain GC noise a 1-core host injects into genuinely
     spawned timings.  The host is time-shared and single timings
     jitter by 50%+, so each figure is the minimum over 3 runs. *)
  let timed_min f =
    Array.fold_left Float.min Float.infinity
      (Measure.repeat ~n:3 (fun () -> ignore (f () : (Key.t * int) array * Keysort.stats)))
  in
  let time_full d =
    let _, stats = Keysort.sort_entries ~domains:d ~spawn:false entries in
    (timed_min (fun () -> Keysort.sort_entries ~domains:d ~spawn:false entries), stats)
  in
  let run_times d =
    Array.init d (fun w ->
        let lo = w * Array.length entries / d and hi = (w + 1) * Array.length entries / d in
        let chunk = Array.sub entries lo (hi - lo) in
        timed_min (fun () -> Keysort.sort_entries chunk))
  in
  let t =
    Tables.create
      ~columns:
        [
          ("domains", Tables.Right);
          ("crit-path ms", Tables.Right);
          ("merge ms", Tables.Right);
          ("Mkey/s", Tables.Right);
          ("speedup", Tables.Right);
          ("pk collisions", Tables.Right);
        ]
  in
  let json_rows = ref [] in
  let speedups = Hashtbl.create 8 in
  let base = ref 0.0 in
  List.iter
    (fun d ->
      let full_ns, stats = time_full d in
      let runs = run_times d in
      let sum_runs = Array.fold_left ( +. ) 0.0 runs in
      let merge_ns = Float.max 0.0 (full_ns -. sum_runs) in
      let crit = Array.fold_left Float.max 0.0 runs +. merge_ns in
      if d = 1 then base := crit;
      let speedup = !base /. crit in
      Hashtbl.replace speedups d speedup;
      let mkeys = float_of_int n *. 1e3 /. crit in
      Tables.add_row t
        [
          string_of_int d;
          fmt_f (crit /. 1e6);
          fmt_f (merge_ns /. 1e6);
          fmt_f mkeys;
          fmt_f speedup;
          string_of_int stats.Keysort.pk_collisions;
        ];
      json_rows :=
        Json_out.Obj
          [
            ("domains", Json_out.Int d);
            ("critical_path_ms", Json_out.Float (crit /. 1e6));
            ("merge_ms", Json_out.Float (merge_ns /. 1e6));
            ("keys_per_sec", Json_out.Float (float_of_int n *. 1e9 /. crit));
            ("speedup_vs_1", Json_out.Float speedup);
            ("pk_collisions", Json_out.Int stats.Keysort.pk_collisions);
          ]
        :: !json_rows)
    domain_counts;
  print_table ~name:"a12" t;
  (* The genuinely spawned path must be byte-identical to the
     sequentialized runs; its wall time on this host is reference
     only (meaningless as a scaling figure on one core). *)
  let seq4, _ = Keysort.sort_entries ~domains:4 ~spawn:false entries in
  let (par4, _), spawned_s = Measure.time (fun () -> Keysort.sort_entries ~domains:4 entries) in
  let spawned_ms = spawned_s *. 1e3 in
  let spawn_identical =
    Array.length seq4 = Array.length par4
    && Array.for_all2
         (fun (ka, ra) (kb, rb) -> Key.equal ka kb && Int.equal ra rb)
         seq4 par4
  in
  Printf.printf "\nspawned 4-domain pass: %.0f ms wall on this host, output %s\n" spawned_ms
    (if spawn_identical then "identical" else "DIVERGES");
  (* {3 Phase 2: post-gapped-load insert throughput vs steady state} *)
  let n2 = max 1024 (n / 5) in
  let m = max 256 (n2 / 20) in
  let rng2 = Pk_util.Prng.create 906L in
  let pool = Keygen.uniform ~rng:rng2 ~key_len ~alphabet (n2 + m) in
  let grown = Index.Registry.build ~key_len "pkB" env.Workload.mem store in
  Array.iter
    (fun k ->
      let rid = Pk_records.Record_store.insert store ~key:k ~payload:Bytes.empty in
      if not (grown.Index.insert k ~rid) then Pk_records.Record_store.delete store rid)
    (Array.sub pool 0 n2);
  let tail = Array.sub pool n2 m in
  let time_tail (ix : Index.t) =
    let (), secs =
      Measure.time (fun () ->
          Array.iter
            (fun k ->
              let rid = Pk_records.Record_store.insert store ~key:k ~payload:Bytes.empty in
              if not (ix.Index.insert k ~rid) then Pk_records.Record_store.delete store rid)
            tail)
    in
    Array.iter
      (fun k ->
        match ix.Index.lookup k with
        | Some rid ->
            ignore (ix.Index.delete k : bool);
            Pk_records.Record_store.delete store rid
        | None -> ())
      tail;
    secs *. 1e9 /. float_of_int m
  in
  let steady = time_tail grown in
  let post_load gap =
    let ix = Index.Registry.build ~key_len "pkB" env.Workload.mem store in
    rebuild ~gap ~into:ix grown;
    time_tail ix
  in
  let post_gapped = post_load 0.1 and post_packed = post_load 0.0 in
  let ratio = post_gapped /. steady in
  Printf.printf
    "\ninsert tail (%d keys): steady-state %.0f ns/insert, post-load %.0f (gap 0.1) vs %.0f \
     (gap 0.0) — ratio %.2fx\n"
    m steady post_gapped post_packed ratio;
  (* {3 Phase 3: round-trip over every registered scheme} *)
  let mismatches = ref 0 and tags_checked = ref 0 in
  let rt_mem = Mem.create () in
  let rt_records = Pk_records.Record_store.create rt_mem in
  let rt_pool = Keygen.uniform ~rng:rng2 ~key_len ~alphabet 4000 in
  List.iter
    (fun tag ->
      incr tags_checked;
      let src = Index.Registry.build ~key_len tag rt_mem rt_records in
      Array.iteri
        (fun i k ->
          let rid = Pk_records.Record_store.insert rt_records ~key:k ~payload:Bytes.empty in
          if not (src.Index.insert k ~rid) then Pk_records.Record_store.delete rt_records rid;
          if i mod 3 = 0 then
            match src.Index.lookup k with
            | Some r ->
                ignore (src.Index.delete k : bool);
                Pk_records.Record_store.delete rt_records r
            | None -> ())
        rt_pool;
      let dst = Index.Registry.build ~key_len tag rt_mem rt_records in
      rebuild ~domains:2 ~gap:0.1 ~into:dst src;
      dst.Index.validate ();
      Array.iter
        (fun k ->
          if not (Option.equal Int.equal (src.Index.lookup k) (dst.Index.lookup k)) then
            incr mismatches)
        rt_pool)
    (Index.Registry.tags ());
  Printf.printf "round-trip: %d schemes, %d lookup mismatches\n" !tags_checked !mismatches;
  Json_out.write_bench ~id:"a12"
    ~params:
      [
        ("keys", Json_out.Int n);
        ("key_len", Json_out.Int key_len);
        ("alphabet", Json_out.Int alphabet);
        ("scheme", Json_out.String "pkB");
        ("gap", Json_out.Float 0.1);
        ( "method",
          Json_out.String
            "critical-path aggregation: per-run sort times measured solo, D-domain time = max \
             over runs (one per domain) plus the sequential k-way merge (spawn:false full-call \
             time minus summed run times); exact for the pipeline's share-nothing runs and \
             independent of host core count" );
        ("spawned_4domain_wall_ms", Json_out.Float spawned_ms);
        ("spawn_identical", Json_out.Bool spawn_identical);
        ("steady_ns_per_insert", Json_out.Float steady);
        ("post_gapped_ns_per_insert", Json_out.Float post_gapped);
        ("post_packed_ns_per_insert", Json_out.Float post_packed);
        ("post_load_insert_ratio", Json_out.Float ratio);
        ("roundtrip_schemes", Json_out.Int !tags_checked);
        ("roundtrip_mismatches", Json_out.Int !mismatches);
      ]
    ~rows:(List.rev !json_rows);
  shape_check "4-domain rebuild sort >= 2.5x the sequential figure"
    (Hashtbl.find speedups 4 >= 2.5);
  shape_check "2-domain speedup above 1" (Hashtbl.find speedups 2 > 1.0);
  shape_check "spawned parallel sort byte-identical to sequentialized runs" spawn_identical;
  shape_check "post-gapped-load inserts within 2x of steady state" (ratio <= 2.0);
  shape_check "rebuild round-trip byte-equal lookups on every scheme" (!mismatches = 0)

let register () =
  let reg id title paper_ref run = Experiment.register { Experiment.id; title; paper_ref; run } in
  reg "a1" "Node size in L2 blocks" "ablation (§5.2 parameter setting)" run_a1;
  reg "a2" "Bit- vs byte-granularity difference offsets" "ablation (§5.2)" run_a2;
  reg "a3" "FINDNODE vs naive linear in-node search" "ablation (§3.3, Example 3.2)" run_a3;
  reg "a4" "Partial-key trees vs direct 4-byte-key trees" "ablation (§5.3 bullet 6)" run_a4;
  reg "a5" "TLB: 8 KiB pages vs superpages" "ablation (§5.1)" run_a5;
  reg "a6" "Mixed OLTP updates (insert/delete maintenance)" "ablation (§4)" run_a6;
  reg "a7" "Hybrid direct/partial scheme" "ablation (§6 conclusions)" run_a7;
  reg "a8" "Partial keys vs prefix B+-tree compression" "ablation (§2 related work)" run_a8;
  reg "a9" "Batched lookups (group descent) and bulk loading" "ablation (batched access paths)" run_a9;
  reg "a10" "Cache/TLB-conscious node placement (blocked bulk loads)"
    "ablation (hierarchical blocking, FAST-style)" run_a10;
  reg "a11" "Sharded multicore serving (domain scaling, optimistic reads)"
    "ablation (share-nothing sharding over OCaml domains)" run_a11;
  reg "a12" "Rebuild at scale (parallel compressed-key sort, gapped bulk loads)"
    "ablation (rebuild/compaction pipeline)" run_a12
