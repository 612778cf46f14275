(* Tests for the workload library: distributions, datasets, and the
   measurement drivers. *)

module Prng = Pk_util.Prng
module Key = Pk_keys.Key
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Partial_key = Pk_partialkey.Partial_key
module Workload = Pk_workload.Workload
module Distribution = Pk_workload.Distribution

let pk2 = Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 }

let test_uniform_sampler () =
  let rng = Prng.create 1L in
  let s = Distribution.sampler Distribution.Uniform ~n:100 ~rng in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let i = s () in
    if i < 0 || i >= 100 then Alcotest.fail "out of range";
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c -> if abs (c - 500) > 200 then Alcotest.failf "skewed bucket: %d" c)
    counts

let test_sequential_sampler () =
  let rng = Prng.create 1L in
  let s = Distribution.sampler Distribution.Sequential ~n:5 ~rng in
  let got = List.init 11 (fun _ -> s ()) in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0 ] got

let test_zipf_sampler_skews () =
  let rng = Prng.create 2L in
  let s = Distribution.sampler (Distribution.Zipf 1.2) ~n:1000 ~rng in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let i = s () in
    counts.(i) <- counts.(i) + 1
  done;
  (* Rank 0 dominates; tail is thin. *)
  Alcotest.(check bool) "head heavy" true (counts.(0) > counts.(10) && counts.(0) > 5_000);
  let tail = Array.fold_left ( + ) 0 (Array.sub counts 500 500) in
  Alcotest.(check bool) (Printf.sprintf "thin tail (%d)" tail) true (tail < 20_000)

let test_zipf_bounds () =
  let rng = Prng.create 3L in
  let s = Distribution.sampler (Distribution.Zipf 0.8) ~n:7 ~rng in
  for _ = 1 to 10_000 do
    let i = s () in
    if i < 0 || i >= 7 then Alcotest.failf "zipf out of range: %d" i
  done

let test_sampler_validation () =
  let rng = Prng.create 4L in
  Alcotest.(check bool) "n=0 rejected" true
    (try
       let (_ : unit -> int) = Distribution.sampler Distribution.Uniform ~n:0 ~rng in
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad skew rejected" true
    (try
       let (_ : unit -> int) = Distribution.sampler (Distribution.Zipf 0.0) ~n:5 ~rng in
       false
     with Invalid_argument _ -> true)

let test_dataset_deterministic () =
  let env1 = Workload.make_env () in
  let env2 = Workload.make_env () in
  let d1 = Workload.make_dataset env1 ~seed:5 ~key_len:10 ~alphabet:50 ~n:500 () in
  let d2 = Workload.make_dataset env2 ~seed:5 ~key_len:10 ~alphabet:50 ~n:500 () in
  Alcotest.(check bool) "same keys for same seed" true
    (Array.for_all2 Key.equal d1.Workload.keys d2.Workload.keys);
  let d3 = Workload.make_dataset env1 ~seed:6 ~key_len:10 ~alphabet:50 ~n:500 () in
  Alcotest.(check bool) "different seed differs" true
    (not (Array.for_all2 Key.equal d1.Workload.keys d3.Workload.keys))

let test_load_and_probes () =
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len:12 ~alphabet:100 ~n:2000 () in
  let ix = Index.make Index.B_tree pk2 env.Workload.mem env.Workload.records in
  Workload.load ds ix;
  Alcotest.(check int) "all loaded" 2000 (ix.Index.count ());
  let p = Workload.probes ds ~n:500 () in
  Array.iter
    (fun k ->
      if ix.Index.lookup k = None then Alcotest.fail "probe key not found (must be successful)")
    p;
  (* Wraparound beyond the dataset size. *)
  let p2 = Workload.probes ds ~n:3000 () in
  Alcotest.(check int) "padded probes" 3000 (Array.length p2)

let test_measure_cache_consistency () =
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len:20 ~alphabet:12 ~n:20_000 () in
  let ix = Index.make Index.B_tree pk2 env.Workload.mem env.Workload.records in
  Workload.load ds ix;
  let warm = Workload.probes ds ~seed:1 ~n:1000 () in
  let probes = Workload.probes ds ~seed:2 ~n:2000 () in
  let cs = Workload.measure_cache env ix ~warm ~probes in
  Alcotest.(check bool) "l1 >= l2 misses" true (cs.Workload.l1_per_op >= cs.Workload.l2_per_op);
  Alcotest.(check bool) "successful pk lookups deref at least once" true
    (cs.Workload.derefs_per_op >= 1.0);
  (* Lookups matching an internal separator stop early, so mean
     visits sit just below the height. *)
  Alcotest.(check bool) "visits within one of height" true
    (cs.Workload.visits_per_op >= float_of_int (ix.Index.height ()) -. 1.0
    && cs.Workload.visits_per_op <= float_of_int (ix.Index.height ()) +. 0.01);
  Alcotest.(check bool) "sim time positive" true (cs.Workload.sim_ns_per_op > 0.0);
  (* Tracing must be off afterwards: wall runs unaffected. *)
  Alcotest.(check bool) "tracing off after measure" true
    (not (Pk_mem.Mem.tracing env.Workload.mem))

let test_measure_repeatable () =
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len:12 ~alphabet:220 ~n:10_000 () in
  let ix = Index.make Index.T_tree Layout.Indirect env.Workload.mem env.Workload.records in
  Workload.load ds ix;
  let warm = Workload.probes ds ~seed:1 ~n:500 () in
  let probes = Workload.probes ds ~seed:2 ~n:1000 () in
  let a = Workload.measure_cache env ix ~warm ~probes in
  let b = Workload.measure_cache env ix ~warm ~probes in
  Alcotest.(check (float 1e-9)) "deterministic misses" a.Workload.l2_per_op b.Workload.l2_per_op

let test_wall_ns_positive () =
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len:8 ~alphabet:220 ~n:5000 () in
  let ix = Index.make Index.B_tree (Layout.Direct { key_len = 8 }) env.Workload.mem env.Workload.records in
  Workload.load ds ix;
  let probes = Workload.probes ds ~n:2000 () in
  List.iter
    (fun batch ->
      let ns = Workload.wall_ns_per_op ~repeats:3 ?batch env ix ~probes in
      Alcotest.(check bool) (Printf.sprintf "sane wall time (%.0f ns)" ns) true
        (ns > 10.0 && ns < 1_000_000.0))
    [ None; Some 64 ]

let test_run_mix () =
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len:10 ~alphabet:100 ~n:3000 () in
  let ix = Index.make Index.B_tree pk2 env.Workload.mem env.Workload.records in
  Workload.load ds ix;
  let r = Workload.run_mix env ix ds ~lookup_pct:50 ~insert_pct:25 ~delete_pct:25 ~ops:5000 () in
  Alcotest.(check int) "ops recorded" 5000 r.Workload.ops_done;
  Alcotest.(check int) "count consistent" (ix.Index.count ()) r.Workload.final_count;
  ix.Index.validate ();
  Alcotest.(check bool) "bad mix rejected" true
    (try
       ignore (Workload.run_mix env ix ds ~lookup_pct:50 ~insert_pct:30 ~delete_pct:25 ~ops:1 ());
       false
     with Invalid_argument _ -> true)

let test_run_mix_zipf () =
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len:10 ~alphabet:100 ~n:2000 () in
  let ix = Index.make Index.T_tree pk2 env.Workload.mem env.Workload.records in
  Workload.load ds ix;
  let r =
    Workload.run_mix env ix ds ~distribution:(Distribution.Zipf 1.0) ~lookup_pct:40
      ~insert_pct:30 ~delete_pct:30 ~ops:4000 ()
  in
  ix.Index.validate ();
  Alcotest.(check bool) "final count sane" true (r.Workload.final_count <= 2000)

let () =
  Alcotest.run "pk_workload"
    [
      ( "distribution",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_sampler;
          Alcotest.test_case "sequential" `Quick test_sequential_sampler;
          Alcotest.test_case "zipf skew" `Quick test_zipf_sampler_skews;
          Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "validation" `Quick test_sampler_validation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "dataset determinism" `Quick test_dataset_deterministic;
          Alcotest.test_case "load + probes" `Quick test_load_and_probes;
          Alcotest.test_case "measure_cache consistency" `Quick test_measure_cache_consistency;
          Alcotest.test_case "measure repeatable" `Quick test_measure_repeatable;
          Alcotest.test_case "wall clock sane" `Quick test_wall_ns_positive;
          Alcotest.test_case "mixed ops" `Quick test_run_mix;
          Alcotest.test_case "mixed ops, zipf" `Quick test_run_mix_zipf;
        ] );
    ]
