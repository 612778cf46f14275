module Prng = Pk_util.Prng
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Mem = Pk_mem.Mem
module Cachesim = Pk_cachesim.Cachesim
module Machine = Pk_cachesim.Machine
module Record_store = Pk_records.Record_store
module Index = Pk_core.Index
module Obs = Pk_obs.Obs
module Measure = Pk_util.Measure

type env = { mem : Mem.t; cache : Cachesim.t; records : Record_store.t }

(* Per-index workload series (idempotent registration; the measure
   functions below resolve their handles once per call, outside the
   measured loops). *)
let obs_lookups ix =
  Obs.Counter.register Obs.Registry.default ("pk_lookups_total{index=\"" ^ ix.Index.tag ^ "\"}")

let obs_deref_hist ix =
  Obs.Histogram.register Obs.Registry.default ("pk_lookup_derefs{index=\"" ^ ix.Index.tag ^ "\"}")

let obs_latency_hist ix =
  Obs.Histogram.register Obs.Registry.default
    ("pk_lookup_latency_ns{index=\"" ^ ix.Index.tag ^ "\"}")

let make_env ?(machine = Machine.ultra30) ?tlb () =
  let cache = Cachesim.create (Machine.to_config ?tlb machine) in
  let mem = Mem.create ~cache () in
  let records = Record_store.create mem in
  { mem; cache; records }

type dataset = {
  env : env;
  keys : Key.t array;
  rids : int array;
  key_len : int;
  alphabet : int;
}

let make_dataset env ?(seed = 42) ~key_len ~alphabet ~n () =
  let rng = Prng.create (Int64.of_int seed) in
  let keys = Keygen.uniform ~rng ~key_len ~alphabet n in
  let rids =
    Array.map (fun k -> Record_store.insert env.records ~key:k ~payload:Bytes.empty) keys
  in
  { env; keys; rids; key_len; alphabet }

let load ds ix =
  Array.iteri
    (fun i k ->
      if not (ix.Index.insert k ~rid:ds.rids.(i)) then
        failwith (Printf.sprintf "Workload.load: %s rejected %s" ix.Index.tag (Key.to_hex k)))
    ds.keys

let probes ds ?(seed = 7) ~n () =
  let perm = Array.copy ds.keys in
  let rng = Prng.create (Int64.of_int seed) in
  Keygen.shuffle ~rng perm;
  Array.init n (fun i -> perm.(i mod Array.length perm))

type cache_stats = {
  l1_per_op : float;
  l2_per_op : float;
  sim_ns_per_op : float;
  tlb_per_op : float;
  derefs_per_op : float;
  visits_per_op : float;
}

let measure_cache env ix ~warm ~probes =
  let n = float_of_int (Array.length probes) in
  Mem.set_tracing env.mem true;
  Cachesim.flush env.cache;
  Array.iter (fun k -> ignore (ix.Index.lookup k)) warm;
  ix.Index.reset_counters ();
  let lookups = obs_lookups ix and dh = obs_deref_hist ix in
  let before = Cachesim.snapshot env.cache in
  Array.iter
    (fun k ->
      let d0 = ix.Index.deref_count () in
      ignore (ix.Index.lookup k);
      Obs.Counter.incr lookups;
      Obs.Histogram.observe dh (ix.Index.deref_count () - d0))
    probes;
  let after = Cachesim.snapshot env.cache in
  Mem.set_tracing env.mem false;
  let d = Cachesim.diff ~before ~after in
  {
    l1_per_op = float_of_int (Cachesim.misses d ~level:"L1") /. n;
    l2_per_op = float_of_int (Cachesim.misses d ~level:"L2") /. n;
    sim_ns_per_op = d.Cachesim.sim_ns /. n;
    tlb_per_op = float_of_int d.Cachesim.tlb_misses /. n;
    derefs_per_op = float_of_int (ix.Index.deref_count ()) /. n;
    visits_per_op = float_of_int (ix.Index.node_visits ()) /. n;
  }

(* Slice a probe list into [batch]-sized sub-arrays up front so the
   measured loops do no slicing (the last batch may be short). *)
let slice_batches probes batch =
  if batch < 1 then invalid_arg "Workload.slice_batches: batch must be >= 1";
  let n = Array.length probes in
  let nb = (n + batch - 1) / batch in
  Array.init nb (fun b -> Array.sub probes (b * batch) (min batch (n - (b * batch))))

let measure_cache_batched env ix ~batch ?(contended = false) ~warm ~probes () =
  let n = float_of_int (Array.length probes) in
  let batches = slice_batches probes batch in
  let out = Array.make (max batch 1) (-1) in
  Mem.set_tracing env.mem true;
  Cachesim.flush env.cache;
  Array.iter (fun k -> ignore (ix.Index.lookup k)) warm;
  ix.Index.reset_counters ();
  let lookups = obs_lookups ix and dh = obs_deref_hist ix in
  let before = Cachesim.snapshot env.cache in
  Array.iter
    (fun b ->
      if contended then Cachesim.flush env.cache;
      let d0 = ix.Index.deref_count () in
      ix.Index.lookup_into b out;
      Obs.Counter.add lookups (Array.length b);
      Obs.Histogram.observe dh (ix.Index.deref_count () - d0))
    batches;
  let after = Cachesim.snapshot env.cache in
  Mem.set_tracing env.mem false;
  let d = Cachesim.diff ~before ~after in
  {
    l1_per_op = float_of_int (Cachesim.misses d ~level:"L1") /. n;
    l2_per_op = float_of_int (Cachesim.misses d ~level:"L2") /. n;
    sim_ns_per_op = d.Cachesim.sim_ns /. n;
    tlb_per_op = float_of_int d.Cachesim.tlb_misses /. n;
    derefs_per_op = float_of_int (ix.Index.deref_count ()) /. n;
    visits_per_op = float_of_int (ix.Index.node_visits ()) /. n;
  }

let wall_ns_per_op ?repeats ?batch env ix ~probes =
  Mem.set_tracing env.mem false;
  let n = Array.length probes in
  let sink = ref 0 in
  (* Probe slices and the result buffer are cut before timing, so the
     batched pass exercises the zero-allocation hot path. *)
  let pass =
    match batch with
    | None ->
        fun () ->
          for i = 0 to n - 1 do
            match ix.Index.lookup probes.(i) with Some r -> sink := !sink + r | None -> ()
          done
    | Some batch ->
        let batches = slice_batches probes batch in
        let out = Array.make batch (-1) in
        fun () ->
          Array.iter
            (fun b ->
              ix.Index.lookup_into b out;
              sink := !sink + out.(0))
            batches
  in
  let runs = Measure.repeat ?n:repeats pass in
  ignore (Sys.opaque_identity !sink);
  let per_op ns = ns /. float_of_int n in
  let lh = obs_latency_hist ix in
  Array.iter (fun ns -> Obs.Histogram.observe lh (int_of_float (per_op ns))) runs;
  per_op (Array.fold_left Float.min Float.infinity runs)

(* The dataset's (key, rid) pairs in strictly ascending key order —
   the input shape [Index.of_sorted] wants. *)
let sorted_pairs ds =
  fst (Pk_core.Keysort.sort_entries (Array.mapi (fun i k -> (k, ds.rids.(i))) ds.keys))

let load_sorted ?(fill = 1.0) ds ix = ix.Index.of_sorted ~fill (sorted_pairs ds)

type mix_result = { ops_done : int; wall_ns_per_mixed_op : float; final_count : int }

let run_mix env ix ds ?(seed = 99) ?(distribution = Distribution.Uniform) ~lookup_pct
    ~insert_pct ~delete_pct ~ops () =
  if lookup_pct + insert_pct + delete_pct <> 100 then
    invalid_arg "Workload.run_mix: percentages must sum to 100";
  Mem.set_tracing env.mem false;
  let n = Array.length ds.keys in
  let rng = Prng.create (Int64.of_int seed) in
  let sample = Distribution.sampler distribution ~n ~rng in
  let present = Array.make n true in
  let rids = Array.copy ds.rids in
  let (), secs =
    Measure.time (fun () ->
        for _ = 1 to ops do
          let i = sample () in
          let r = Prng.int rng 100 in
          if r < lookup_pct then ignore (ix.Index.lookup ds.keys.(i))
          else if r < lookup_pct + insert_pct then begin
            if not present.(i) then begin
              let rid = Record_store.insert env.records ~key:ds.keys.(i) ~payload:Bytes.empty in
              if ix.Index.insert ds.keys.(i) ~rid then begin
                rids.(i) <- rid;
                present.(i) <- true
              end
              else Record_store.delete env.records rid
            end
          end
          else if present.(i) then begin
            if ix.Index.delete ds.keys.(i) then begin
              Record_store.delete env.records rids.(i);
              present.(i) <- false
            end
          end
        done)
  in
  {
    ops_done = ops;
    wall_ns_per_mixed_op = secs *. 1e9 /. float_of_int ops;
    final_count = ix.Index.count ();
  }
