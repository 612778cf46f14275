(* Unit tests for the observability layer (lib/obs) and its wiring:
   histogram bucket geometry, counter overflow, trace-ring wrap and
   drain-while-writing, snapshot/JSON export shape, the zero-allocation
   guarantee of hot-path handle updates (asserted with Gc.minor_words,
   tracing enabled), and the registry/per-tree counter agreement that
   pkbench --metrics relies on. *)

module Obs = Pk_obs.Obs
module Index = Pk_core.Index
module Record_store = Pk_records.Record_store
module Json_out = Pk_harness.Json_out
module Metrics_out = Pk_harness.Metrics_out

(* {2 Histogram geometry} *)

let test_bucket_boundaries () =
  let b = Obs.Histogram.bucket_of in
  Alcotest.(check int) "0 -> bucket 0" 0 (b 0);
  Alcotest.(check int) "-1 -> bucket 0" 0 (b (-1));
  Alcotest.(check int) "min_int -> bucket 0" 0 (b min_int);
  Alcotest.(check int) "1 -> bucket 1" 1 (b 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (b 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (b 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (b 4);
  Alcotest.(check int) "max_int -> top bucket" (Obs.Histogram.n_buckets - 1) (b max_int);
  (* Every bucket's own bounds land in that bucket, and the bounds
     tile the int range without gaps. *)
  for k = 1 to Obs.Histogram.n_buckets - 1 do
    let lo = Obs.Histogram.bucket_lo k and hi = Obs.Histogram.bucket_hi k in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d" k) k (b lo);
    Alcotest.(check int) (Printf.sprintf "hi of bucket %d" k) k (b hi);
    if k > 1 then
      Alcotest.(check int)
        (Printf.sprintf "bucket %d starts after bucket %d ends" k (k - 1))
        (Obs.Histogram.bucket_hi (k - 1) + 1)
        lo
  done;
  Alcotest.(check int) "bucket_lo 0 = min_int" min_int (Obs.Histogram.bucket_lo 0);
  Alcotest.(check int) "bucket_hi 0 = 0" 0 (Obs.Histogram.bucket_hi 0);
  Alcotest.(check int) "bucket_hi top = max_int" max_int
    (Obs.Histogram.bucket_hi (Obs.Histogram.n_buckets - 1))

let test_histogram_observe () =
  let reg = Obs.Registry.create () in
  let h = Obs.Histogram.register reg "h_test" in
  List.iter (Obs.Histogram.observe h) [ 0; 1; 1; 3; 4; 1000; max_int; -7 ];
  Alcotest.(check int) "count" 8 (Obs.Histogram.count h);
  Alcotest.(check int) "sum wraps like ints" (0 + 1 + 1 + 3 + 4 + 1000 + max_int + -7)
    (Obs.Histogram.sum h);
  Alcotest.(check int) "bucket 0 holds <=0" 2 (Obs.Histogram.bucket_count h 0);
  Alcotest.(check int) "bucket 1 holds the 1s" 2 (Obs.Histogram.bucket_count h 1);
  Alcotest.(check int) "bucket 2 holds 3" 1 (Obs.Histogram.bucket_count h 2);
  Alcotest.(check int) "bucket 3 holds 4" 1 (Obs.Histogram.bucket_count h 3);
  Alcotest.(check int) "bucket 10 holds 1000" 1 (Obs.Histogram.bucket_count h 10);
  Alcotest.(check int) "top bucket holds max_int" 1
    (Obs.Histogram.bucket_count h (Obs.Histogram.n_buckets - 1))

(* {2 Counters} *)

let test_counter_overflow () =
  let reg = Obs.Registry.create () in
  let c = Obs.Counter.register reg "c_total" in
  Obs.Counter.add c max_int;
  Alcotest.(check int) "at max_int" max_int (Obs.Counter.value c);
  Obs.Counter.incr c;
  Alcotest.(check int) "wraps to min_int" min_int (Obs.Counter.value c);
  Obs.Counter.add c 1;
  Alcotest.(check int) "keeps counting" (min_int + 1) (Obs.Counter.value c)

let test_counter_sharing () =
  let reg = Obs.Registry.create () in
  let a = Obs.Counter.register reg "shared_total" in
  let b = Obs.Counter.register reg "shared_total" in
  Obs.Counter.incr a;
  Obs.Counter.add b 2;
  Alcotest.(check int) "same cell via a" 3 (Obs.Counter.value a);
  Alcotest.(check int) "same cell via b" 3 (Obs.Counter.value b);
  let c = Obs.Counter.register reg "other_total" in
  Obs.Counter.incr c;
  Alcotest.(check int) "distinct names distinct cells" 3 (Obs.Counter.value a);
  (* The nop handle swallows updates without a registry. *)
  let n = Obs.Counter.nop () in
  Obs.Counter.incr n;
  Obs.Counter.add n 41;
  Alcotest.(check int) "nop counts privately" 42 (Obs.Counter.value n)

(* {2 Trace ring} *)

let drain_seqs tr =
  let events, dropped = Obs.Trace.drain tr in
  (List.map (fun e -> e.Obs.Trace.seq) events, dropped)

let test_ring_disabled () =
  let tr = Obs.Trace.create () in
  Alcotest.(check bool) "starts disabled" false (Obs.Trace.enabled tr);
  Obs.Trace.emit tr Obs.Trace.k_visit 1 2;
  Alcotest.(check int) "no writes while disabled" 0 (Obs.Trace.written tr);
  let events, dropped = Obs.Trace.drain tr in
  Alcotest.(check int) "drain empty" 0 (List.length events);
  Alcotest.(check int) "nothing dropped" 0 dropped

let test_ring_wrap_and_drain () =
  let tr = Obs.Trace.create () in
  Obs.Trace.enable ~capacity:8 tr;
  Alcotest.(check bool) "enabled" true (Obs.Trace.enabled tr);
  Alcotest.(check int) "capacity is the requested power of two" 8 (Obs.Trace.capacity tr);
  for i = 0 to 19 do
    Obs.Trace.emit tr Obs.Trace.k_visit i (2 * i)
  done;
  let events, dropped = Obs.Trace.drain tr in
  Alcotest.(check int) "ring keeps the last capacity events" 8 (List.length events);
  Alcotest.(check int) "older events reported dropped" 12 dropped;
  List.iteri
    (fun j e ->
      Alcotest.(check int) "seq oldest-first" (12 + j) e.Obs.Trace.seq;
      Alcotest.(check int) "payload a survives" (12 + j) e.Obs.Trace.a;
      Alcotest.(check int) "payload b survives" (2 * (12 + j)) e.Obs.Trace.b)
    events;
  (* Writers never stopped: the next drain picks up exactly what was
     written since, with nothing double-counted. *)
  for i = 0 to 2 do
    Obs.Trace.emit tr Obs.Trace.k_deref 100 i
  done;
  let seqs, dropped = drain_seqs tr in
  Alcotest.(check (list int)) "continues from the reader cursor" [ 20; 21; 22 ] seqs;
  Alcotest.(check int) "no drops under capacity" 0 dropped;
  let seqs, dropped = drain_seqs tr in
  Alcotest.(check (list int)) "drain is consuming" [] seqs;
  Alcotest.(check int) "still no drops" 0 dropped;
  Alcotest.(check int) "written is cumulative" 23 (Obs.Trace.written tr)

let test_ring_reenable_and_rounding () =
  let tr = Obs.Trace.create () in
  Obs.Trace.enable ~capacity:5 tr;
  Alcotest.(check int) "capacity rounds up to a power of two" 8 (Obs.Trace.capacity tr);
  Obs.Trace.emit tr Obs.Trace.k_restart 1 0;
  Obs.Trace.emit tr Obs.Trace.k_unwind 0 0;
  (* Re-enabling with a smaller or equal capacity keeps the ring and
     its unread contents. *)
  Obs.Trace.enable ~capacity:4 tr;
  let events, dropped = Obs.Trace.drain tr in
  Alcotest.(check int) "contents survive re-enable" 2 (List.length events);
  Alcotest.(check int) "no drops" 0 dropped;
  (match events with
  | [ e1; e2 ] ->
      Alcotest.(check bool) "restart kind decodes" true
        (match e1.Obs.Trace.kind with Obs.Trace.Restart -> true | _ -> false);
      Alcotest.(check bool) "unwind kind decodes" true
        (match e2.Obs.Trace.kind with Obs.Trace.Unwind -> true | _ -> false)
  | _ -> Alcotest.fail "expected two events");
  Obs.Trace.disable tr;
  Obs.Trace.emit tr Obs.Trace.k_visit 9 9;
  Alcotest.(check int) "disable stops recording" 2 (Obs.Trace.written tr)

let test_emit_sign () =
  let tr = Obs.Trace.create () in
  Obs.Trace.enable ~capacity:8 tr;
  Obs.Trace.emit_sign tr 7 (-3);
  Obs.Trace.emit_sign tr 7 0;
  Obs.Trace.emit_sign tr 7 5;
  let events, _ = Obs.Trace.drain tr in
  let kinds = List.map (fun e -> e.Obs.Trace.kind) events in
  Alcotest.(check bool) "lt/eq/gt in order" true
    (match kinds with [ Obs.Trace.Pk_lt; Obs.Trace.Pk_eq; Obs.Trace.Pk_gt ] -> true | _ -> false)

(* {2 Snapshot and exporters} *)

let test_snapshot_and_json_shape () =
  let reg = Obs.Registry.create () in
  let c2 = Obs.Counter.register reg "z_total" in
  let c1 = Obs.Counter.register reg "a_total" in
  let h = Obs.Histogram.register reg "lat_ns" in
  Obs.Counter.add c1 5;
  Obs.Counter.incr c2;
  Obs.Histogram.observe h 3;
  Obs.Histogram.observe h 300;
  let snap = Obs.Snapshot.take reg in
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a_total", 5); ("z_total", 1) ]
    snap.Obs.Snapshot.counters;
  (match snap.Obs.Snapshot.hists with
  | [ hs ] ->
      Alcotest.(check string) "hist name" "lat_ns" hs.Obs.Snapshot.hname;
      Alcotest.(check int) "hist count" 2 hs.Obs.Snapshot.hcount;
      Alcotest.(check int) "hist sum" 303 hs.Obs.Snapshot.hsum;
      Alcotest.(check (list (pair int int)))
        "non-zero buckets only"
        [ (2, 1); (9, 1) ]
        hs.Obs.Snapshot.hbuckets
  | l -> Alcotest.failf "expected one histogram, got %d" (List.length l));
  (* JSON export: {"counters": {...}, "histograms": [...]} with le
     bounds taken from the bucket geometry. *)
  (match Metrics_out.registry_value reg with
  | Json_out.Obj [ ("counters", Json_out.Obj cs); ("histograms", Json_out.List [ hv ]) ] -> (
      Alcotest.(check bool) "counter a_total exported" true
        (List.exists
           (fun (n, v) ->
             String.equal n "a_total" && match v with Json_out.Int 5 -> true | _ -> false)
           cs);
      match hv with
      | Json_out.Obj fields ->
          Alcotest.(check (list string))
            "histogram carries name/count/sum/buckets"
            [ "name"; "count"; "sum"; "buckets" ]
            (List.map fst fields)
      | _ -> Alcotest.fail "histogram entry is not an object")
  | _ -> Alcotest.fail "unexpected top-level JSON shape");
  (* Prometheus exposition: cumulative buckets, labels preserved. *)
  let c = Obs.Counter.register reg "pk_demo_total{index=\"x\"}" in
  Obs.Counter.add c 7;
  let prom = Obs.prometheus reg in
  let contains needle =
    let n = String.length needle and m = String.length prom in
    let rec go i = i + n <= m && (String.equal (String.sub prom i n) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (contains "a_total 5");
  Alcotest.(check bool) "labelled counter line" true (contains "pk_demo_total{index=\"x\"} 7");
  Alcotest.(check bool) "histogram +Inf bucket" true (contains "lat_ns_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "histogram sum" true (contains "lat_ns_sum 303");
  Alcotest.(check bool) "histogram count" true (contains "lat_ns_count 2")

(* Extra-label registration: the [?label] pair must splice into both a
   bare series name and one that already carries labels, land intact in
   the Prometheus exposition, and keep find-or-create semantics per
   distinct label value. *)
let test_extra_label () =
  let reg = Obs.Registry.create () in
  let c0 = Obs.Counter.register ~label:("shard", "3") reg "pk_probes_total" in
  Alcotest.(check string) "label on a bare name" "pk_probes_total{shard=\"3\"}"
    (Obs.Counter.name c0);
  let c1 = Obs.Counter.register ~label:("shard", "0") reg "pk_probes_total{index=\"pkB\"}" in
  Alcotest.(check string) "label spliced into an existing set"
    "pk_probes_total{index=\"pkB\",shard=\"0\"}" (Obs.Counter.name c1);
  (* distinct label values are distinct series; equal ones share *)
  let c2 = Obs.Counter.register ~label:("shard", "1") reg "pk_probes_total{index=\"pkB\"}" in
  let c1' = Obs.Counter.register ~label:("shard", "0") reg "pk_probes_total{index=\"pkB\"}" in
  Obs.Counter.add c1 4;
  Obs.Counter.add c1' 1;
  Obs.Counter.add c2 2;
  Obs.Counter.incr c0;
  let h = Obs.Histogram.register ~label:("shard", "2") reg "pk_lat_ns{index=\"pkB\"}" in
  Alcotest.(check string) "histogram label" "pk_lat_ns{index=\"pkB\",shard=\"2\"}"
    (Obs.Histogram.name h);
  Obs.Histogram.observe h 9;
  let prom = Obs.prometheus reg in
  let contains needle =
    let n = String.length needle and m = String.length prom in
    let rec go i = i + n <= m && (String.equal (String.sub prom i n) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "shard 0 series" true
    (contains "pk_probes_total{index=\"pkB\",shard=\"0\"} 5");
  Alcotest.(check bool) "shard 1 series" true
    (contains "pk_probes_total{index=\"pkB\",shard=\"1\"} 2");
  Alcotest.(check bool) "bare-name series" true (contains "pk_probes_total{shard=\"3\"} 1");
  Alcotest.(check bool) "labelled histogram bucket" true
    (contains "pk_lat_ns_bucket{index=\"pkB\",shard=\"2\",le=\"15\"} 1");
  (* and the JSON exporter carries the same fully-labelled names *)
  (match Metrics_out.registry_value reg with
  | Json_out.Obj [ ("counters", Json_out.Obj cs); ("histograms", Json_out.List hs) ] ->
      Alcotest.(check bool) "JSON counter name" true
        (List.exists
           (fun (n, v) ->
             String.equal n "pk_probes_total{index=\"pkB\",shard=\"1\"}"
             && match v with Json_out.Int 2 -> true | _ -> false)
           cs);
      Alcotest.(check bool) "JSON histogram name" true
        (List.exists
           (function
             | Json_out.Obj (("name", Json_out.String n) :: _) ->
                 String.equal n "pk_lat_ns{index=\"pkB\",shard=\"2\"}"
             | _ -> false)
           hs)
  | _ -> Alcotest.fail "unexpected top-level JSON shape");
  (* mixing kinds under one labelled name still fails loudly *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.Histogram.register: pk_probes_total{shard=\"3\"} is a counter")
    (fun () -> ignore (Obs.Histogram.register ~label:("shard", "3") reg "pk_probes_total"))

(* {2 Registry enumeration (pkbench list-schemes)} *)

let test_registry_tags_sorted () =
  Pk_core.Hybrid.ensure_registered ();
  Pk_core.Variants.ensure_registered ();
  let tags = Index.Registry.tags () in
  Alcotest.(check bool) "at least the six paper schemes + prefix" true (List.length tags >= 7);
  Alcotest.(check (list string)) "sorted and duplicate-free"
    (List.sort_uniq String.compare tags)
    tags;
  Alcotest.(check (list string)) "all () enumerates in tags order" tags
    (List.map (fun i -> i.Index.Registry.tag) (Index.Registry.all ()))

(* {2 Registry/per-tree counter agreement} *)

let test_registry_matches_deref_count () =
  let mem, records = Support.make_env () in
  let ix = Index.Registry.build ~key_len:12 "pkB" mem records in
  let keys = Support.sorted_keys ~seed:21 ~key_len:12 ~alphabet:8 400 in
  Array.iter
    (fun key ->
      let rid = Record_store.insert records ~key ~payload:Bytes.empty in
      ignore (ix.Index.insert key ~rid))
    (Support.shuffled ~seed:22 keys);
  let series = "pk_index_derefs_total{index=\"" ^ ix.Index.tag ^ "\"}" in
  let series_value () =
    match List.assoc_opt series (Obs.Snapshot.take Obs.Registry.default).Obs.Snapshot.counters with
    | Some v -> v
    | None -> Alcotest.failf "series %s not registered" series
  in
  ix.Index.reset_counters ();
  let v0 = series_value () in
  Array.iter (fun k -> ignore (ix.Index.lookup k)) (Support.shuffled ~seed:23 keys);
  Alcotest.(check int) "registry delta equals the live deref_count"
    (ix.Index.deref_count ())
    (series_value () - v0)

(* {2 Zero allocation on the hot paths} *)

(* Measure minor words per update over a warmed loop; the handle
   updates are plain array arithmetic so the budget is (near) zero. *)
let assert_no_alloc name rounds f =
  f ();
  f ();
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  let per_round = (Gc.minor_words () -. before) /. float_of_int rounds in
  if per_round > 0.1 then
    Alcotest.failf "%s: %.4f minor words per round (expected none)" name per_round

let test_zero_alloc_handles () =
  let reg = Obs.Registry.create () in
  let c = Obs.Counter.register reg "hot_total" in
  let h = Obs.Histogram.register reg "hot_hist" in
  let tr = Obs.Trace.create () in
  Obs.Trace.enable ~capacity:64 tr;
  assert_no_alloc "Counter.incr" 10_000 (fun () -> Obs.Counter.incr c);
  assert_no_alloc "Counter.add" 10_000 (fun () -> Obs.Counter.add c 3);
  assert_no_alloc "Histogram.observe" 10_000 (fun () -> Obs.Histogram.observe h 129);
  assert_no_alloc "Trace.emit (enabled)" 10_000 (fun () ->
      Obs.Trace.emit tr Obs.Trace.k_visit 5 6);
  Obs.Trace.disable tr;
  assert_no_alloc "Trace.emit (disabled)" 10_000 (fun () ->
      Obs.Trace.emit tr Obs.Trace.k_visit 5 6)

(* The existing zero-alloc contract (test_batch) covers the direct and
   indirect schemes; it must survive with the trace ring turned on —
   emission is three array stores, not an event record. *)
let test_zero_alloc_lookup_with_tracing () =
  List.iter
    (fun tag ->
      let mem, records = Support.make_env () in
      let ix = Index.Registry.build ~key_len:12 tag mem records in
      let keys = Support.sorted_keys ~seed:31 ~key_len:12 ~alphabet:8 600 in
      Array.iter
        (fun key ->
          let rid = Record_store.insert records ~key ~payload:Bytes.empty in
          ignore (ix.Index.insert key ~rid))
        (Support.shuffled ~seed:32 keys);
      Obs.Trace.enable ~capacity:256 ix.Index.trace;
      let probes = Array.sub (Support.shuffled ~seed:33 keys) 0 256 in
      let out = Array.make (Array.length probes) (-1) in
      assert_no_alloc
        (tag ^ ": lookup_into with tracing enabled")
        200
        (fun () -> ix.Index.lookup_into probes out))
    [ "B-direct"; "B-indirect"; "T-direct"; "T-indirect" ]

(* {2 Descent trail of a single lookup}

   A single lookup descends through the same router hooks as a batch,
   and those hooks emit the trail: one [Route] per internal node the
   probe passes, naming the visited nodes in order.  The T-tree's
   FINDTTREE descent has no child index to report and routes nothing. *)

let test_single_lookup_routes () =
  List.iter
    (fun (tag, routes) ->
      let mem, records = Support.make_env () in
      let ix = Index.Registry.build ~key_len:12 tag mem records in
      let keys = Support.sorted_keys ~seed:41 ~key_len:12 ~alphabet:8 3000 in
      Array.iter
        (fun key ->
          let rid = Record_store.insert records ~key ~payload:Bytes.empty in
          ignore (ix.Index.insert key ~rid))
        (Support.shuffled ~seed:42 keys);
      let height = ix.Index.height () in
      if routes && height < 3 then Alcotest.failf "%s: height %d too low to test" tag height;
      let present = Hashtbl.create 3000 in
      Array.iter (fun k -> Hashtbl.replace present k ()) keys;
      let absent =
        Support.sorted_keys ~seed:43 ~key_len:12 ~alphabet:9 60
        |> Array.to_list
        |> List.filter (fun k -> not (Hashtbl.mem present k))
      in
      Obs.Trace.enable ~capacity:1024 ix.Index.trace;
      let probe k =
        ignore (Obs.Trace.drain ix.Index.trace);
        ignore (ix.Index.lookup k : int option);
        let evs, _ = Obs.Trace.drain ix.Index.trace in
        let nodes kind =
          List.filter_map (fun (e : Obs.Trace.event) -> if kind e.kind then Some e.a else None) evs
        in
        ( nodes (function Obs.Trace.Visit -> true | _ -> false),
          nodes (function Obs.Trace.Route -> true | _ -> false) )
      in
      let check k =
        let visits, route_nodes = probe k in
        let expect = if routes then List.filteri (fun i _ -> i < List.length visits - 1) visits else [] in
        if route_nodes <> expect then
          Alcotest.failf "%s: %s routed through %d nodes, visited %d" tag (Pk_keys.Key.to_hex k)
            (List.length route_nodes) (List.length visits);
        List.length route_nodes
      in
      Array.iteri (fun i k -> if i mod 30 = 0 then ignore (check k : int)) keys;
      (* An absent key always descends to a leaf. *)
      List.iter
        (fun k ->
          let n = check k in
          if routes && n <> height - 1 then
            Alcotest.failf "%s: absent key routed %d times at height %d" tag n height)
        absent;
      Obs.Trace.disable ix.Index.trace)
    [ ("pkB", true); ("B+/prefix", true); ("pkT", false) ]

let () =
  Alcotest.run "pk_obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "observe distribution" `Quick test_histogram_observe;
        ] );
      ( "counter",
        [
          Alcotest.test_case "overflow wraps" `Quick test_counter_overflow;
          Alcotest.test_case "idempotent registration shares cells" `Quick test_counter_sharing;
          Alcotest.test_case "extra label splices into both exporters" `Quick test_extra_label;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled ring is inert" `Quick test_ring_disabled;
          Alcotest.test_case "wrap and drain while writing" `Quick test_ring_wrap_and_drain;
          Alcotest.test_case "re-enable keeps contents, capacity rounds" `Quick
            test_ring_reenable_and_rounding;
          Alcotest.test_case "emit_sign maps comparison outcomes" `Quick test_emit_sign;
          Alcotest.test_case "single lookups route once per internal node" `Quick
            test_single_lookup_routes;
        ] );
      ( "export",
        [
          Alcotest.test_case "snapshot and JSON shape" `Quick test_snapshot_and_json_shape;
          Alcotest.test_case "registry tags sorted" `Quick test_registry_tags_sorted;
          Alcotest.test_case "registry matches deref_count" `Quick
            test_registry_matches_deref_count;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "handle updates allocate nothing" `Quick test_zero_alloc_handles;
          Alcotest.test_case "traced lookups allocate nothing" `Quick
            test_zero_alloc_lookup_with_tracing;
        ] );
    ]
