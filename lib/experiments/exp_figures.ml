(* F9a / F9b / F10a / F10b — the paper's evaluation figures. *)

open Bench_common

(* {2 Figure 9: time and L2 cache performance, parametric in key size} *)

let f9_row b ~key_len cs wall =
  [
    b.name;
    string_of_int key_len;
    fmt_f cs.Workload.l2_per_op;
    fmt_f cs.Workload.l1_per_op;
    fmt_f cs.Workload.derefs_per_op;
    fmt_f ~d:2 (cs.Workload.sim_ns_per_op /. 1000.0);
    fmt_f ~d:0 wall;
    string_of_int (b.ix.Index.height ());
    fmt_f ~d:1 (space_per_key b);
  ]

let f9_columns =
  [
    ("scheme", Tables.Left);
    ("key B", Tables.Right);
    ("L2 miss/op", Tables.Right);
    ("L1 miss/op", Tables.Right);
    ("deref/op", Tables.Right);
    ("sim us/op", Tables.Right);
    ("wall ns/op", Tables.Right);
    ("height", Tables.Right);
    ("B/key", Tables.Right);
  ]

let run_f9 ~alphabet ~key_sizes () =
  let n = Experiment.scaled_keys 400_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let n_warm = 3000 in
  Printf.printf "keys=%d, entropy=%s, lookups=%d (all successful), machine=Ultra 30\n\n" n
    (entropy_tag alphabet) n_probe;
  let t = Tables.create ~columns:f9_columns in
  (* collected for the shape summary: (scheme, key_len) -> (l2, wall) *)
  let results = Hashtbl.create 64 in
  List.iteri
    (fun idx key_len ->
      if idx > 0 then Tables.add_separator t;
      let builts =
        build_schemes ~key_len ~alphabet ~n ~n_warm ~n_probe (Index.paper_schemes ~key_len ())
      in
      let walls = time_schemes builts in
      List.iter
        (fun b ->
          let cs = cache_stats b in
          let wall = List.assoc b.name walls in
          Hashtbl.replace results (b.name, key_len) (cs.Workload.l2_per_op, wall);
          Tables.add_row t (f9_row b ~key_len cs wall))
        builts)
    key_sizes;
  print_table ~name:(Printf.sprintf "f9-entropy%d" alphabet) t;
  let l2 name k = fst (Hashtbl.find results (name, k)) in
  let wall name k = snd (Hashtbl.find results (name, k)) in
  (* Figure 9's actual form: a scatter of (lookup time, L2 misses)
     parametric in key size, one marker per scheme. *)
  let markers = [ ("T-direct", 't'); ("T-indirect", 'u'); ("pkT", 'p');
                  ("B-direct", 'b'); ("B-indirect", 'd'); ("pkB", 'P') ] in
  let series =
    List.map
      (fun (name, marker) ->
        {
          Pk_util.Scatter.label = name;
          marker;
          points =
            List.filter_map
              (fun k ->
                match Hashtbl.find_opt results (name, k) with
                | Some (l2, wall) -> Some (wall /. 1000.0, l2)
                | None -> None)
              key_sizes;
        })
      markers
  in
  print_string
    (Pk_util.Scatter.render ~x_label:"lookup time (us, wall)" ~y_label:"L2 misses per lookup"
       series);
  let smallest = List.hd key_sizes in
  let largest = List.nth key_sizes (List.length key_sizes - 1) in
  (* The paper's Figure 9 bullets (§5.3). *)
  shape_check "pkB within 5% of minimal L2 misses at every key size"
    (List.for_all
       (fun k ->
         List.for_all
           (fun (name, _, _) -> l2 "pkB" k <= (l2 name k *. 1.05) +. 0.01)
           (Index.paper_schemes ~key_len:k ()))
       key_sizes);
  shape_check "B-direct fastest wall time at the smallest key size"
    (List.for_all
       (fun (name, _, _) -> wall "B-direct" smallest <= wall name smallest *. 1.10)
       (Index.paper_schemes ~key_len:smallest ()));
  shape_check
    (Printf.sprintf "partial-key trees beat B-direct in wall time at %d-byte keys" largest)
    (wall "pkB" largest < wall "B-direct" largest);
  shape_check "T-indirect has the most L2 misses at every key size"
    (List.for_all
       (fun k ->
         List.for_all
           (fun (name, _, _) -> String.equal name "T-indirect" || l2 "T-indirect" k >= l2 name k)
           (Index.paper_schemes ~key_len:k ()))
       key_sizes);
  shape_check "pk L2 misses roughly flat in key size (<35% growth)"
    (l2 "pkB" largest < l2 "pkB" smallest *. 1.35);
  shape_check "B-direct L2 misses grow with key size (>25%)"
    (l2 "B-direct" largest > l2 "B-direct" smallest *. 1.25)

(* {2 Figure 10(a): varying the partial-key size l} *)

let run_f10a () =
  let n = Experiment.scaled_keys 250_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let n_warm = 3000 in
  let key_len = 20 in
  Printf.printf "keys=%d, key size=%d B, lookups=%d\n\n" n key_len n_probe;
  let t =
    Tables.create
      ~columns:
        [
          ("entropy", Tables.Left);
          ("scheme", Tables.Left);
          ("l (bytes)", Tables.Right);
          ("offsets", Tables.Left);
          ("L2 miss/op", Tables.Right);
          ("deref/op", Tables.Right);
          ("sim us/op", Tables.Right);
          ("wall ns/op", Tables.Right);
          ("B/key", Tables.Right);
        ]
  in
  let best = Hashtbl.create 8 in
  List.iteri
    (fun i alphabet ->
      if i > 0 then Tables.add_separator t;
      let variants =
        List.map
          (fun l ->
            ( Printf.sprintf "pkB byte l=%d" l,
              Index.B_tree,
              Layout.Partial { granularity = Partial_key.Byte; l_bytes = l } ))
          [ 0; 1; 2; 4; 8; 16 ]
        @ List.map
            (fun l ->
              ( Printf.sprintf "pkB bit l=%d" l,
                Index.B_tree,
                Layout.Partial { granularity = Partial_key.Bit; l_bytes = l } ))
            [ 0; 2 ]
        @ List.map
            (fun l ->
              ( Printf.sprintf "pkT byte l=%d" l,
                Index.T_tree,
                Layout.Partial { granularity = Partial_key.Byte; l_bytes = l } ))
            [ 0; 2; 4 ]
      in
      let builts = build_schemes ~key_len ~alphabet ~n ~n_warm ~n_probe variants in
      let walls = time_schemes builts in
      List.iter
        (fun b ->
          let cs = cache_stats b in
          let wall = List.assoc b.name walls in
          Hashtbl.replace best (alphabet, b.name) cs.Workload.l2_per_op;
          let offsets = if String.length b.name >= 8 && String.equal (String.sub b.name 4 3) "bit" then "bit" else "byte" in
          let l_str =
            match String.rindex_opt b.name '=' with
            | Some j -> String.sub b.name (j + 1) (String.length b.name - j - 1)
            | None -> "?"
          in
          Tables.add_row t
            [
              entropy_tag alphabet;
              (if String.length b.name >= 3 && String.equal (String.sub b.name 0 3) "pkT" then "pkT" else "pkB");
              l_str;
              offsets;
              fmt_f cs.Workload.l2_per_op;
              fmt_f cs.Workload.derefs_per_op;
              fmt_f (cs.Workload.sim_ns_per_op /. 1000.0);
              fmt_f ~d:0 wall;
              fmt_f ~d:1 (space_per_key b);
            ])
        builts)
    [ low_entropy; high_entropy ];
  print_table ~name:"f10a" t;
  let get a name = Hashtbl.find best (a, name) in
  (* §5.3: small l (2 or 4 bytes) is optimal or near-optimal. *)
  List.iter
    (fun a ->
      let m24 = Float.min (get a "pkB byte l=2") (get a "pkB byte l=4") in
      let m_all =
        Hashtbl.fold
          (fun (a', n) v acc ->
            if a' = a && String.length n >= 3 && String.equal (String.sub n 0 3) "pkB" then
              Float.min v acc
            else acc)
          best Float.infinity
      in
      shape_check
        (Printf.sprintf "l=2 or 4 bytes near-optimal (within 10%%) at %s" (entropy_tag a))
        (m24 <= m_all *. 1.10))
    [ low_entropy; high_entropy ];
  shape_check "bit offsets beat byte offsets at l=0 (Bit-Tree mode)"
    (get low_entropy "pkB bit l=0" < get low_entropy "pkB byte l=0")

(* {2 Figure 10(b): space-time tradeoff} *)

let run_f10b () =
  let n = Experiment.scaled_keys 200_000 in
  let n_probe = Experiment.scaled_lookups 4096 in
  let n_warm = 3000 in
  let alphabet = high_entropy in
  let key_sizes = [ 4; 8; 12; 20; 28; 36 ] in
  Printf.printf "keys=%d, entropy=%s; space is index bytes per key\n\n" n (entropy_tag alphabet);
  let t =
    Tables.create
      ~columns:
        [
          ("scheme", Tables.Left);
          ("key B", Tables.Right);
          ("B/key", Tables.Right);
          ("wall ns/op", Tables.Right);
          ("L2 miss/op", Tables.Right);
          ("nodes", Tables.Right);
        ]
  in
  let space = Hashtbl.create 64 in
  List.iteri
    (fun idx key_len ->
      if idx > 0 then Tables.add_separator t;
      let builts =
        build_schemes ~key_len ~alphabet ~n ~n_warm ~n_probe (Index.paper_schemes ~key_len ())
      in
      let walls = time_schemes builts in
      List.iter
        (fun b ->
          let cs = cache_stats b in
          Hashtbl.replace space (b.name, key_len) (space_per_key b);
          Tables.add_row t
            [
              b.name;
              string_of_int key_len;
              fmt_f ~d:1 (space_per_key b);
              fmt_f ~d:0 (List.assoc b.name walls);
              fmt_f cs.Workload.l2_per_op;
              Tables.fmt_int (b.ix.Index.node_count ());
            ])
        builts)
    key_sizes;
  print_table ~name:"f10b" t;
  let sp name k = Hashtbl.find space (name, k) in
  (* §5.3 space claims. *)
  shape_check "indirect storage is the most space-efficient at every key size"
    (List.for_all
       (fun k ->
         sp "T-indirect" k <= sp "pkT" k
         && sp "B-indirect" k <= sp "pkB" k
         && sp "T-indirect" k <= sp "T-direct" k)
       key_sizes);
  shape_check "pk space roughly twice indirect space (1.3x-2.6x)"
    (List.for_all
       (fun k ->
         let r = sp "pkB" k /. sp "B-indirect" k in
         r > 1.3 && r < 2.6)
       key_sizes);
  shape_check "pkB smaller than B-direct for keys > 4 bytes"
    (List.for_all (fun k -> sp "pkB" k < sp "B-direct" k) (List.filter (fun k -> k > 4) key_sizes));
  shape_check "direct space grows with key size; pk space does not (>2x vs <1.2x)"
    (sp "B-direct" 36 > sp "B-direct" 4 *. 2.0 && sp "pkB" 36 < sp "pkB" 4 *. 1.2)

let register () =
  Experiment.register
    {
      Experiment.id = "f9a";
      title = "Time and L2 cache performance, low entropy (3.6 bits/byte)";
      paper_ref = "Figure 9(a)";
      run = run_f9 ~alphabet:low_entropy ~key_sizes:[ 8; 12; 20; 28; 36 ];
    };
  Experiment.register
    {
      Experiment.id = "f9b";
      title = "Time and L2 cache performance, high entropy (7.8 bits/byte)";
      paper_ref = "Figure 9(b)";
      run = run_f9 ~alphabet:high_entropy ~key_sizes:[ 4; 8; 12; 20; 28; 36 ];
    };
  Experiment.register
    {
      Experiment.id = "f10a";
      title = "Varying the partial-key size l";
      paper_ref = "Figure 10(a)";
      run = run_f10a;
    };
  Experiment.register
    {
      Experiment.id = "f10b";
      title = "Space-time tradeoff";
      paper_ref = "Figure 10(b)";
      run = run_f10b;
    }
