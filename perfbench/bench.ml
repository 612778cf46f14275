(* The repository benchmark.

   bench.exe --workload W --seed N --seconds S --trace 0|1 [--spans-dir D]

   Three workloads (read-large, read-small-lowent, oltp-journaled), each
   driven through the library's public entry points by one closed-loop
   client in one domain.  Inputs are generated from the seed before any
   set-up clock starts.  Every timed metric is taken over many short
   fixed-size passes spread across the whole timed phase, never from one
   pass: host interference shifts whole seconds at a time.  On a shared
   host the per-pass rates are bimodal (contended and uncontended
   stretches whose mix changes from minute to minute), so a rate is the
   10th percentile over passes and a latency the 90th percentile of the
   per-pass values: the contended floor, which stays put while the
   median wanders with the mix.

   With --trace 0 the last stdout line is the JSON result with the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics,
   measured from spans and counter deltas recorded around each public
   call.  perfbench/LAYERS.md maps each per-layer metric to the
   end-to-end metric and workload it should move. *)

module Mem = Pk_mem.Mem
module Record_store = Pk_records.Record_store
module Index = Pk_core.Index
module Journal = Pk_journal.Journal
module Obs = Pk_obs.Obs
module Workload = Pk_workload.Workload
module Stats = Pk_util.Stats_acc
module Spans = Measure.Spans

let now = Measure.now
let key_len = Inputs.key_len
let seconds_of_ns ns = float_of_int ns /. 1e9
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The Ultra 30 preset with its 8 KiB-page TLB.  The simulator stays
   attached but does not trace outside [Workload.measure_cache]. *)
let make_env () = Workload.make_env ~tlb:Pk_cachesim.Machine.default_tlb ()

(* The heap high-water mark at the end of the run's seed-determined
   prefix (the first build of a read workload, the first episode of
   oltp-journaled), less the heap the generated inputs hold: later
   rounds repeat the same work, but how far the heap grows there
   depends on how many passes the clock allowed.  Both readings are
   exact at a fixed seed. *)
let heap_input_words = ref 0
let heap_peak_words = ref 0

(* Called once the inputs are generated: compact, then take the heap
   they occupy as the baseline. *)
let note_inputs () =
  Gc.compact ();
  let st = Gc.quick_stat () in
  heap_input_words := st.heap_words;
  log "inputs hold %d heap words (high-water mark so far %d)" st.heap_words st.top_heap_words

let note_heap_peak () =
  if !heap_peak_words = 0 then heap_peak_words := (Gc.quick_stat ()).top_heap_words

(* {1 Outcome accounting}

   Every operation result is checked against the generated dataset or
   the benchmark's own model; a mismatch or an exception is a failure. *)

let attempted = ref 0
let failed = ref 0

let check ok =
  incr attempted;
  if not ok then incr failed

(* {1 Per-pass latency buffers} *)

type lat = { ns : int array; mutable n : int }

let lat_create cap = { ns = Array.make cap 0; n = 0 }

let lat_add l d =
  l.ns.(l.n) <- d;
  l.n <- l.n + 1

(* Push the pass's p50 and p99 into the run's samples. *)
let lat_push l ~p50 ~p99 =
  if l.n > 0 then begin
    let s = Array.sub l.ns 0 l.n in
    Array.sort Int.compare s;
    let q f = float_of_int s.(min (l.n - 1) (int_of_float (f *. float_of_int l.n))) in
    Stats.add p50 (q 0.5);
    Stats.add p99 (q 0.99)
  end

let lat_sum l =
  let s = ref 0 in
  for i = 0 to l.n - 1 do
    s := !s + l.ns.(i)
  done;
  !s

(* kop/s from [n] operations in [ns] nanoseconds. *)
let kops n ns = float_of_int n *. 1e6 /. float_of_int (max ns 1)

(* {1 Run-wide samples} *)

type timed = {
  setup_s : Stats.t;
  load_s : Stats.t;  (** The [of_sorted] call within each set-up. *)
  lookup_kops : Stats.t;
  lookup_p50 : Stats.t;
  lookup_p99 : Stats.t;
  batch_kops : Stats.t;
  ops_kops : Stats.t;
  ops_kops_traced : Stats.t;  (** Traced pass pairs of the traced run. *)
  op_p50 : Stats.t;
  op_p99 : Stats.t;
  serialize_s : Stats.t;
  parse_s : Stats.t;
  replay_s : Stats.t;
}

let timed () =
  let s = Stats.create in
  {
    setup_s = s ();
    load_s = s ();
    lookup_kops = s ();
    lookup_p50 = s ();
    lookup_p99 = s ();
    batch_kops = s ();
    ops_kops = s ();
    ops_kops_traced = s ();
    op_p50 = s ();
    op_p99 = s ();
    serialize_s = s ();
    parse_s = s ();
    replay_s = s ();
  }

(* One set-up sample: the whole set-up and its [of_sorted] call. *)
let add_setup t ~setup_ns ~load_ns =
  log "set-up %.4f s (of_sorted %.4f s)" (seconds_of_ns setup_ns) (seconds_of_ns load_ns);
  Stats.add t.setup_s (seconds_of_ns setup_ns);
  Stats.add t.load_s (seconds_of_ns load_ns)

(* Span names, interned once per span set.  [call] prefixes the index
   calls: "core" for a bare index, "jix" for the journaled wrapper. *)
type names = {
  setup : int;
  rec_insert : int;
  rec_delete : int;
  load : int;
  op_lookup : int;
  op_insert : int;
  op_delete : int;
  op_batch : int;
  lookup : int;
  insert : int;
  delete : int;
  lookup_into : int;
}

let names sp ~call =
  let n = Spans.name sp in
  {
    setup = n "setup";
    rec_insert = n "records.insert";
    rec_delete = n "records.delete";
    load = n "core.of_sorted";
    op_lookup = n "op.lookup";
    op_insert = n "op.insert";
    op_delete = n "op.delete";
    op_batch = n "op.batch";
    lookup = n (call ^ ".lookup");
    insert = n (call ^ ".insert");
    delete = n (call ^ ".delete");
    lookup_into = n "core.lookup_into";
  }

(* {1 Deterministic counts of the traced run}

   Taken over a count block that runs at a seed-determined point, before
   any loop whose length depends on the clock, so they repeat exactly at
   a fixed seed. *)

type counts = {
  spans : Spans.t;  (** Counter deltas at the count block's call boundaries. *)
  twin : Spans.t;  (** The unjournaled twin's replay (oltp-journaled only). *)
  gc : Gc.stat * Gc.stat;  (** Around the count block. *)
  ops : int;  (** Operations in the count block (batched keys count one each). *)
  height : int;
  resolved : float;
  cache : Workload.cache_stats;
  bytes_per_record : float;
  used_over_live : float;
  journal : int * int * int;  (** Acknowledged mutations, journal records, commits. *)
  log_bytes_per_op : float;
  recovery : Pk_core.Engine.recovery_stats option;
}

(* Share of node visits whose partial-key search finished without a
   record dereference, from the index's own descent-trace ring: a visit
   is resolved when no [k_deref] event follows it before the next
   [k_visit].  Drained every 64 lookups, so nothing is overwritten. *)
let pk_resolved_ratio (ix : Index.t) keys =
  let tr = ix.trace in
  Obs.Trace.enable ~capacity:(1 lsl 16) tr;
  ignore (Obs.Trace.drain tr);
  let visits = ref 0 and deref_visits = ref 0 and derefed = ref false in
  let close () = if !derefed then incr deref_visits in
  let drain () =
    let evs, dropped = Obs.Trace.drain tr in
    if dropped > 0 then failwith "pk_resolved_ratio: trace ring overflowed";
    List.iter
      (fun (e : Obs.Trace.event) ->
        match e.kind with
        | Obs.Trace.Visit ->
            close ();
            incr visits;
            derefed := false
        | Obs.Trace.Deref -> derefed := true
        | _ -> ())
      evs
  in
  Array.iteri
    (fun i k ->
      if i mod 64 = 63 then drain ();
      ignore (ix.lookup k))
    keys;
  drain ();
  close ();
  Obs.Trace.disable tr;
  1.0 -. (float_of_int !deref_visits /. float_of_int (max 1 !visits))

(* The per-index probes of the count block: height, partial-key
   resolution, simulated cache behaviour and record-heap footprint. *)
let probe_index (env : Workload.env) (ix : Index.t) ~ring ~warm ~probes =
  let rreg = Record_store.region env.records in
  let resolved = pk_resolved_ratio ix ring in
  let cache = Workload.measure_cache env ix ~warm ~probes in
  ( ix.height (),
    resolved,
    cache,
    float_of_int (Record_store.live_bytes env.records) /. float_of_int (Record_store.count env.records),
    float_of_int (Mem.used_bytes rreg) /. float_of_int (Mem.live_bytes rreg) )

(* {1 Read workloads} *)

type read_cfg = { tag : string; alphabet : int; n : int; rounds : int; stream : int }

let read_large = { tag = "pkB"; alphabet = 220; n = 1_000_000; rounds = 10; stream = 1 lsl 20 }
let read_small = { tag = "pkT"; alphabet = 12; n = 30_000; rounds = 64; stream = 1 lsl 17 }
let lookup_pass_n = 10_000
let batch_pass_n = 160 (* lookup_into calls of 64 keys: 10 240 keys *)
let count_passes = 5

type built = { env : Workload.env; ix : Index.t; rids : int array }

(* Set-up: records stored, then the index bulk-loaded from the sorted
   (key, rid) pairs.  Returns the build, its duration and the
   [of_sorted] call's. *)
let build_read ~sp ~on ~nm cfg (inp : Inputs.read) =
  let t0 = now () in
  if on then Spans.enter sp nm.setup;
  let env = make_env () in
  let ix = Index.Registry.build ~key_len cfg.tag env.mem env.records in
  let rids =
    Array.mapi
      (fun i k ->
        if on then Spans.enter sp nm.rec_insert;
        let r = Record_store.insert env.records ~key:k ~payload:Bytes.empty in
        if on then Spans.leave sp i;
        r)
      inp.keys
  in
  let pairs = Array.map (fun i -> (inp.keys.(i), rids.(i))) inp.sorted in
  let l0 = now () in
  if on then Spans.enter_ix sp nm.load ix;
  ix.of_sorted ~fill:1.0 pairs;
  if on then Spans.leave_ix sp 0 ix;
  let l1 = now () in
  if on then Spans.leave sp 0;
  ({ env; ix; rids }, now () - t0, l1 - l0)

(* One pass of single-key lookups over [probes.(off .. off+n-1)].
   Returns the pass wall time; per-call latencies land in [lat]. *)
let lookup_pass ~sp ~on ~nm (b : built) (inp : Inputs.read) ~off ~n (lat : lat) =
  let ix = b.ix and rids = b.rids in
  lat.n <- 0;
  let t0 = now () in
  for i = 0 to n - 1 do
    let j = off + i in
    if on then Spans.enter sp nm.op_lookup;
    let a = now () in
    if on then Spans.enter_ix sp nm.lookup ix;
    let r = match ix.lookup inp.probes.(j) with r -> r | exception _ -> None in
    if on then Spans.leave_ix sp j ix;
    lat_add lat (now () - a);
    check (match r with Some rid -> rid = rids.(inp.probe_idx.(j)) | None -> false);
    if on then Spans.leave sp j
  done;
  now () - t0

(* One pass of [nb] [lookup_into] calls.  Returns (wall, in-call) ns. *)
let batch_pass ~sp ~on ~nm (b : built) (inp : Inputs.read) ~off ~nb out =
  let ix = b.ix and rids = b.rids in
  let inside = ref 0 in
  let t0 = now () in
  for k = 0 to nb - 1 do
    let j = off + k in
    if on then Spans.enter sp nm.op_batch;
    let a = now () in
    if on then Spans.enter_ix sp nm.lookup_into ix;
    let ok = match ix.lookup_into inp.batches.(j) out with () -> true | exception _ -> false in
    if on then Spans.leave_ix sp j ix;
    inside := !inside + (now () - a);
    let idx = inp.batch_idx.(j) in
    for s = 0 to Inputs.batch - 1 do
      check (ok && out.(s) = rids.(idx.(s)))
    done;
    if on then Spans.leave sp j
  done;
  (now () - t0, !inside)

(* The count block of a read workload: [count_passes] pass pairs from
   offset 0 on the first build, then the index probes. *)
let read_counts (b : built) (inp : Inputs.read) lat out =
  let cs = Spans.create () in
  let nm = names cs ~call:"core" in
  let g0 = Gc.quick_stat () in
  for p = 0 to count_passes - 1 do
    ignore (lookup_pass ~sp:cs ~on:true ~nm b inp ~off:(p * lookup_pass_n) ~n:lookup_pass_n lat);
    ignore (batch_pass ~sp:cs ~on:true ~nm b inp ~off:(p * batch_pass_n) ~nb:batch_pass_n out)
  done;
  let g1 = Gc.quick_stat () in
  let height, resolved, cache, bytes_per_record, used_over_live =
    probe_index b.env b.ix ~ring:(Array.sub inp.probes 0 4096)
      ~warm:(Array.sub inp.probes 0 20_000) ~probes:(Array.sub inp.probes 20_000 20_000)
  in
  {
    spans = cs;
    twin = Spans.create ~capacity:0 ();
    gc = (g0, g1);
    ops = count_passes * (lookup_pass_n + (batch_pass_n * Inputs.batch));
    height;
    resolved;
    cache;
    bytes_per_record;
    used_over_live;
    journal = (0, 0, 0);
    log_bytes_per_op = 0.0;
    recovery = None;
  }

(* Rounds of (fresh build, share of the timed phase); the timed phase
   is made of pass pairs: [lookup_pass_n] lookups, then [batch_pass_n]
   lookup_into calls.  In the traced run every other pair is traced. *)
let run_read cfg ~trace ~seconds ~seed =
  let g0 = now () in
  let inp = Inputs.read ~seed ~alphabet:cfg.alphabet ~n:cfg.n ~stream:cfg.stream in
  log "generated inputs in %.3f s" (seconds_of_ns (now () - g0));
  note_inputs ();
  let t = timed () and sp = Spans.create () in
  let nm = names sp ~call:"core" in
  let lat = lat_create lookup_pass_n and out = Array.make Inputs.batch (-1) in
  let n_batches = Array.length inp.batches in
  let loff = ref 0 and boff = ref 0 and pair = ref 0 in
  let counts = ref None and bytes_per_key = ref 0.0 in
  let round_ns = int_of_float (seconds *. 1e9) / cfg.rounds in
  for r = 0 to cfg.rounds - 1 do
    Gc.compact ();
    let b, setup_ns, load_ns = build_read ~sp ~on:trace ~nm cfg inp in
    add_setup t ~setup_ns ~load_ns;
    note_heap_peak ();
    bytes_per_key := float_of_int (b.ix.space_bytes ()) /. float_of_int (b.ix.count ());
    Gc.full_major ();
    if trace && r = 0 then counts := Some (read_counts b inp lat out);
    let stop = now () + round_ns in
    while now () < stop do
      let on = trace && !pair land 1 = 1 in
      if !loff + lookup_pass_n > cfg.stream then loff := 0;
      if !boff + batch_pass_n > n_batches then boff := 0;
      let lwall = lookup_pass ~sp ~on ~nm b inp ~off:!loff ~n:lookup_pass_n lat in
      let bwall, binside = batch_pass ~sp ~on ~nm b inp ~off:!boff ~nb:batch_pass_n out in
      loff := !loff + lookup_pass_n;
      boff := !boff + batch_pass_n;
      incr pair;
      let keys = lookup_pass_n + (batch_pass_n * Inputs.batch) in
      if on then Stats.add t.ops_kops_traced (kops keys (lwall + bwall))
      else begin
        Stats.add t.ops_kops (kops keys (lwall + bwall));
        Stats.add t.lookup_kops (kops lookup_pass_n (lat_sum lat));
        lat_push lat ~p50:t.lookup_p50 ~p99:t.lookup_p99;
        (* Every single-key operation of a read workload is a lookup. *)
        lat_push lat ~p50:t.op_p50 ~p99:t.op_p99;
        Stats.add t.batch_kops (kops (batch_pass_n * Inputs.batch) binside)
      end
    done
  done;
  (t, sp, !bytes_per_key, !counts)

(* {1 The journaled OLTP workload} *)

let oltp_n0 = 200_000
let oltp_ops = 240_000
let oltp_pass = 2_000
let oltp_batches_per_pass = 16

(* Set-ups per episode: one episode takes several seconds, so the
   episode's own set-up alone gives too few samples for a steady
   median; the extra set-ups run outside the timed phase. *)
let oltp_setups_per_episode = 4

type episode = {
  env : Workload.env;
  ix : Index.t;  (** The index the stream ran against. *)
  mutations : int;  (** Acknowledged mutations. *)
  log_delta : int * int * int;  (** Journal bytes, records, commits appended by the stream. *)
  gc : Gc.stat * Gc.stat;  (** Around the stream. *)
}

(* Set-up: a fresh pkB (behind the journal when [journal] is given),
   records stored for the initial keys, then the index bulk-loaded.
   [trace] spans it. *)
let setup_oltp ?journal ~trace ~sp ~nm (inp : Inputs.oltp) t =
  Gc.compact ();
  let t0 = now () in
  if trace then Spans.enter sp nm.setup;
  let env = make_env () in
  let base = Index.Registry.build ~key_len "pkB" env.mem env.records in
  let ix = match journal with Some j -> Index.journaled j env.records base | None -> base in
  let rids = Array.make (Array.length inp.ukeys) (-1) in
  for s = 0 to inp.n0 - 1 do
    if trace then Spans.enter sp nm.rec_insert;
    rids.(s) <- Record_store.insert env.records ~key:inp.ukeys.(s) ~payload:inp.init_payload.(s);
    if trace then Spans.leave sp s
  done;
  let pairs = Array.map (fun s -> (inp.ukeys.(s), rids.(s))) inp.init_sorted in
  let l0 = now () in
  if trace then Spans.enter_ix sp nm.load ix;
  ix.of_sorted ~gap:0.1 ~fill:1.0 pairs;
  if trace then Spans.leave_ix sp 0 ix;
  let l1 = now () in
  if trace then Spans.leave sp 0;
  add_setup t ~setup_ns:(now () - t0) ~load_ns:(l1 - l0);
  (env, ix, rids)

(* One episode: set-up, then the whole operation stream in passes of
   [inp.pass] operations, each followed by [oltp_batches_per_pass]
   lookup_into calls.  [trace_pass p] spans pass [p]. *)
let episode ?journal ~trace ~trace_pass ~sp ~nm (inp : Inputs.oltp) batch_keys t =
  let env, ix, rids = setup_oltp ?journal ~trace ~sp ~nm inp t in
  Gc.full_major ();
  let journal_counts () =
    match journal with
    | Some j -> (Journal.byte_size j, Journal.record_count j, Journal.commit_count j)
    | None -> (0, 0, 0)
  in
  let b0, r0, c0 = journal_counts () in
  let all = lat_create inp.pass and lk = lat_create inp.pass in
  let out = Array.make Inputs.batch (-1) in
  let mutations = ref 0 in
  let g0 = Gc.quick_stat () in
  for p = 0 to (Array.length inp.kind / inp.pass) - 1 do
    let on = trace_pass p in
    all.n <- 0;
    lk.n <- 0;
    let w0 = now () in
    for i = p * inp.pass to ((p + 1) * inp.pass) - 1 do
      let s = inp.slot.(i) in
      let key = inp.ukeys.(s) and kind = inp.kind.(i) in
      if kind = Inputs.op_lookup then begin
        if on then Spans.enter sp nm.op_lookup;
        let a = now () in
        if on then Spans.enter_ix sp nm.lookup ix;
        let r = match ix.lookup key with r -> r | exception _ -> None in
        if on then Spans.leave_ix sp i ix;
        let d = now () - a in
        lat_add all d;
        lat_add lk d;
        check (match r with Some rid -> rid = rids.(s) | None -> false);
        if on then Spans.leave sp i
      end
      else if kind = Inputs.op_insert then begin
        if on then Spans.enter sp nm.op_insert;
        let a = now () in
        if on then Spans.enter sp nm.rec_insert;
        let rid = Record_store.insert env.records ~key ~payload:inp.payload.(i) in
        if on then Spans.leave sp i;
        if on then Spans.enter_ix sp nm.insert ix;
        let ok = match ix.insert key ~rid with ok -> ok | exception _ -> false in
        if on then Spans.leave_ix sp i ix;
        lat_add all (now () - a);
        rids.(s) <- rid;
        if ok then incr mutations;
        check ok;
        if on then Spans.leave sp i
      end
      else begin
        if on then Spans.enter sp nm.op_delete;
        let a = now () in
        if on then Spans.enter_ix sp nm.delete ix;
        let ok = match ix.delete key with ok -> ok | exception _ -> false in
        if on then Spans.leave_ix sp i ix;
        if on then Spans.enter sp nm.rec_delete;
        if ok then Record_store.delete env.records rids.(s);
        if on then Spans.leave sp i;
        lat_add all (now () - a);
        rids.(s) <- -1;
        if ok then incr mutations;
        check ok;
        if on then Spans.leave sp i
      end
    done;
    let inside = ref 0 in
    Array.iteri
      (fun k keys ->
        if on then Spans.enter sp nm.op_batch;
        let a = now () in
        if on then Spans.enter_ix sp nm.lookup_into ix;
        let ok = match ix.lookup_into keys out with () -> true | exception _ -> false in
        if on then Spans.leave_ix sp k ix;
        inside := !inside + (now () - a);
        let slots = inp.pass_batches.(p).(k) in
        for j = 0 to Inputs.batch - 1 do
          check (ok && out.(j) = rids.(slots.(j)))
        done;
        if on then Spans.leave sp k)
      batch_keys.(p);
    let wall = now () - w0 in
    let bkeys = Array.length batch_keys.(p) * Inputs.batch in
    if on then Stats.add t.ops_kops_traced (kops (inp.pass + bkeys) wall)
    else begin
      Stats.add t.ops_kops (kops (inp.pass + bkeys) wall);
      Stats.add t.lookup_kops (kops lk.n (lat_sum lk));
      lat_push lk ~p50:t.lookup_p50 ~p99:t.lookup_p99;
      lat_push all ~p50:t.op_p50 ~p99:t.op_p99;
      Stats.add t.batch_kops (kops bkeys !inside)
    end
  done;
  let g1 = Gc.quick_stat () in
  let b1, r1, c1 = journal_counts () in
  { env; ix; mutations = !mutations; log_delta = (b1 - b0, r1 - r0, c1 - c0); gc = (g0, g1) }

(* Crash and recover: serialize the journal, drop the live index, parse
   the bytes back and rebuild through [Index.recover] (which
   deep-validates); then check the recovered index against the
   committed mutations — every acknowledged write present with its
   payload, nothing else.  Returns the recovery stats. *)
let crash_and_recover ~sp ~on (inp : Inputs.oltp) j t =
  let n_crash = Spans.name sp "crash" and n_ser = Spans.name sp "journal.to_bytes" in
  let n_parse = Spans.name sp "journal.of_bytes" and n_rec = Spans.name sp "core.recover" in
  Gc.full_major ();
  if on then Spans.enter sp n_crash;
  let a = now () in
  if on then Spans.enter sp n_ser;
  let bytes = Journal.to_bytes j in
  if on then Spans.leave sp 0;
  let b = now () in
  if on then Spans.enter sp n_parse;
  let j2 = Journal.of_bytes bytes in
  if on then Spans.leave sp 0;
  let c = now () in
  if on then Spans.enter sp n_rec;
  let _mem, records, rix, stats = Index.recover ~key_len ~tag:"pkB" j2 in
  if on then Spans.leave sp 0;
  let d = now () in
  if on then Spans.leave sp 0;
  Stats.add t.serialize_s (seconds_of_ns (b - a));
  Stats.add t.parse_s (seconds_of_ns (c - b));
  Stats.add t.replay_s (seconds_of_ns (d - c));
  let live = ref 0 in
  Array.iteri
    (fun s want ->
      match (want, rix.lookup inp.ukeys.(s)) with
      | Some p, Some rid ->
          incr live;
          check (Bytes.equal p (Record_store.read_payload records rid))
      | None, None -> check true
      | _ -> check false)
    inp.final_payload;
  check (rix.count () = !live);
  stats

(* Episodes until the timed phase is used up.  In the traced run the
   first episode is the count block, traced throughout and followed by
   the unjournaled twin's replay; later episodes trace every other
   pass. *)
let run_oltp ~trace ~seconds ~seed =
  let g0 = now () in
  let inp =
    Inputs.oltp ~seed ~n0:oltp_n0 ~ops:oltp_ops ~pass:oltp_pass
      ~batches_per_pass:oltp_batches_per_pass ~cache_probes:10_000
  in
  let batch_keys = Array.map (Array.map (Array.map (fun s -> inp.ukeys.(s)))) inp.pass_batches in
  log "generated inputs in %.3f s" (seconds_of_ns (now () - g0));
  note_inputs ();
  let t = timed () and sp = Spans.create () in
  let nm = names sp ~call:"jix" in
  let stop = ref (now () + int_of_float (seconds *. 1e9)) in
  let counts = ref None and bytes_per_key = ref 0.0 in
  let ep = ref 0 in
  (* The traced run needs a second episode for its untraced passes. *)
  let min_episodes = if trace then 2 else 1 in
  while !ep < min_episodes || now () < !stop do
    let count_block = trace && !ep = 0 in
    let esp = if count_block then Spans.create () else sp in
    let enm = if count_block then names esp ~call:"jix" else nm in
    let trace_pass p = count_block || (trace && p land 1 = 1) in
    let j = Journal.create () in
    let e = episode ~journal:j ~trace ~trace_pass ~sp:esp ~nm:enm inp batch_keys t in
    bytes_per_key := float_of_int (e.ix.space_bytes ()) /. float_of_int (e.ix.count ());
    let probes =
      if count_block then
        Some
          (probe_index e.env e.ix ~ring:(Array.sub inp.cache_probes 0 4096) ~warm:inp.cache_warm
             ~probes:inp.cache_probes)
      else None
    in
    let recovery = crash_and_recover ~sp:esp ~on:trace inp j t in
    note_heap_peak ();
    Option.iter
      (fun (height, resolved, cache, bytes_per_record, used_over_live) ->
        (* The twin replays the same stream on a bare pkB right after
           the count block: its call spans give the core's own mutation
           cost, and the difference to the count block's journaled
           calls over the identical stream is the journal's overhead. *)
        let twin = Spans.create () in
        ignore
          (episode ~trace:true ~trace_pass:(fun _ -> true) ~sp:twin ~nm:(names twin ~call:"core")
             inp batch_keys (timed ()));
        let log_bytes, log_records, log_commits = e.log_delta in
        counts :=
          Some
            {
              spans = esp;
              twin;
              gc = e.gc;
              ops =
                Array.length inp.kind
                + (Array.length inp.pass_batches * oltp_batches_per_pass * Inputs.batch);
              height;
              resolved;
              cache;
              bytes_per_record;
              used_over_live;
              journal = (e.mutations, log_records, log_commits);
              log_bytes_per_op = float_of_int log_bytes /. float_of_int e.mutations;
              recovery = Some recovery;
            })
      probes;
    let x0 = now () in
    for _ = 2 to oltp_setups_per_episode do
      ignore (setup_oltp ~journal:(Journal.create ()) ~trace:false ~sp ~nm inp t)
    done;
    stop := !stop + (now () - x0);
    incr ep
  done;
  log "%d episodes" !ep;
  (t, sp, !bytes_per_key, !counts)

(* {1 Output} *)

let heap_peak_mb () =
  float_of_int ((!heap_peak_words - !heap_input_words) * (Sys.word_size / 8)) /. 1048576.0

let median s = Stats.percentile s 50.0

(* Per-pass rates and latencies summarised at the contended floor (see
   the header comment). *)
let rate s = Stats.percentile s 10.0
let latency s = Stats.percentile s 90.0

let end_to_end t ~bytes_per_key =
  log "%d untraced pass pairs; set-up samples: %d" (Stats.count t.ops_kops)
    (Stats.count t.setup_s);
  [
    ("setup_s", median t.setup_s, "s");
    ("lookup_kops", rate t.lookup_kops, "kop/s");
    ("lookup_p50_ns", latency t.lookup_p50, "ns");
    ("batch_lookup_kops", rate t.batch_kops, "kkey/s");
    ("ops_kops", rate t.ops_kops, "kop/s");
    ("op_p50_ns", latency t.op_p50, "ns");
    ("bytes_per_key", bytes_per_key, "B");
    ("heap_peak_mb", heap_peak_mb (), "MiB");
  ]

let per_op total n = if n = 0 then 0.0 else total /. float_of_int n

(* The per-layer metrics, named after the repository's modules.  Self
   times come from the timed phase's traced passes ([sp]); counts from
   the count block ([c]).  Layers a workload never calls report 0. *)
let per_layer ~pair_ns t sp c =
  let mean_self = Spans.mean_self_ns in
  let cs = c.spans and tw = c.twin in
  let lookup = if Spans.count cs "jix.lookup" > 0 then "jix.lookup" else "core.lookup" in
  let lookups = Spans.count cs lookup in
  let batch_keys = Spans.count cs "core.lookup_into" * Inputs.batch in
  let sum f s a b = f s a + f s b in
  let tw_mut = sum Spans.count tw "core.insert" "core.delete" in
  let mean_mut s call =
    per_op
      (float_of_int (sum Spans.self_ns s (call ^ ".insert") (call ^ ".delete")))
      (sum Spans.count s (call ^ ".insert") (call ^ ".delete"))
  in
  let mutations, log_records, log_commits = c.journal in
  let g0, g1 = c.gc in
  let rec_stat f = match c.recovery with Some r -> float_of_int (f r) | None -> 0.0 in
  let med s = if Stats.count s = 0 then 0.0 else median s in
  [
    ("core.lookup_self_ns", mean_self sp lookup, "ns");
    ( "core.batch_key_self_ns",
      per_op (float_of_int (Spans.self_ns sp "core.lookup_into")) (Spans.count sp "core.lookup_into" * Inputs.batch),
      "ns" );
    ("core.node_visits_per_lookup", per_op (float_of_int (Spans.visits cs lookup)) lookups, "count");
    ("core.height", float_of_int c.height, "count");
    ("core.minor_words_per_lookup", per_op (Spans.minor_words cs lookup) lookups, "words");
    ("core.minor_words_per_batch_key", per_op (Spans.minor_words cs "core.lookup_into") batch_keys, "words");
    ("core.insert_self_ns", mean_self tw "core.insert", "ns");
    ("core.delete_self_ns", mean_self tw "core.delete", "ns");
    ( "core.minor_words_per_mutation",
      per_op (Spans.minor_words tw "core.insert" +. Spans.minor_words tw "core.delete") tw_mut,
      "words" );
    ("core.load_s", med t.load_s, "s");
    ("core.recover_replay_s", med t.replay_s, "s");
    ("core.recover_bulk_keys", rec_stat (fun r -> r.Pk_core.Engine.rec_bulk), "count");
    ("core.recover_tail_ops", rec_stat (fun r -> r.Pk_core.Engine.rec_tail), "count");
    ("partialkey.derefs_per_lookup", per_op (float_of_int (Spans.derefs cs lookup)) lookups, "count");
    ("partialkey.pk_resolved_ratio", c.resolved, "ratio");
    ("records.insert_self_ns", mean_self sp "records.insert", "ns");
    ("records.bytes_per_key", c.bytes_per_record, "B");
    ("arena.record_used_over_live", c.used_over_live, "ratio");
    ("cachesim.l2_miss_per_lookup", c.cache.l2_per_op, "count");
    ("cachesim.tlb_miss_per_lookup", c.cache.tlb_per_op, "count");
    ("cachesim.sim_ns_per_lookup", c.cache.sim_ns_per_op, "ns");
    ( "journal.overhead_ns_per_mutation",
      (if tw_mut = 0 then 0.0 else mean_mut cs "jix" -. mean_mut tw "core"),
      "ns" );
    ("journal.records_per_mutation", per_op (float_of_int log_records) mutations, "count");
    ("journal.commits_per_mutation", per_op (float_of_int log_commits) mutations, "count");
    ("journal.serialize_s", med t.serialize_s, "s");
    ("journal.parse_s", med t.parse_s, "s");
    ("recover_s", (if Stats.count t.replay_s = 0 then 0.0 else median t.parse_s +. median t.replay_s), "s");
    ("log_bytes_per_op", c.log_bytes_per_op, "B");
    ( "gc.minor_collections_per_kop",
      per_op (float_of_int (g1.minor_collections - g0.minor_collections)) c.ops *. 1000.0,
      "count" );
    ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections), "count");
    ("gc.promoted_words_per_op", per_op (g1.promoted_words -. g0.promoted_words) c.ops, "words");
    (* The tails spread too far from run to run to gate on (10-11% on
       oltp-journaled), so they are reported here, from the traced
       run's untraced passes. *)
    ("lookup_p99_ns", latency t.lookup_p99, "ns");
    ("op_p99_ns", latency t.op_p99, "ns");
    ("timer.pair_ns", pair_ns, "ns");
    ("trace.overhead_pct", ((rate t.ops_kops /. rate t.ops_kops_traced) -. 1.0) *. 100.0, "%");
    ("fail_ratio", per_op (float_of_int !failed) !attempted, "ratio");
  ]

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let emit metrics =
  List.iter (fun (n, v, u) -> log "  %-36s %16.6g %s" n v u) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed body

let main ~workload ~seed ~seconds ~trace ~spans_dir =
  let pair_ns = if trace then Measure.timer_pair_ns () else 0.0 in
  let t, sp, bytes_per_key, counts =
    match workload with
    | "read-large" -> run_read read_large ~trace ~seconds ~seed
    | "read-small-lowent" -> run_read read_small ~trace ~seconds ~seed
    | "oltp-journaled" -> run_oltp ~trace ~seconds ~seed
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  match counts with
  | None -> emit (end_to_end t ~bytes_per_key)
  | Some c ->
      let oc = open_out (Filename.concat spans_dir (Printf.sprintf "%s-seed%d.tsv" workload seed)) in
      output_string oc "phase\tid\tname\tstart_ns\tend_ns\tparent\top\n";
      List.iter
        (fun (phase, s) -> Spans.dump s ~phase oc)
        [ ("count", c.spans); ("twin", c.twin); ("timed", sp) ];
      close_out oc;
      emit (per_layer ~pair_ns t sp c)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let spans_dir = ref "" in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1 [--spans-dir D]" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W read-large | read-small-lowent | oltp-journaled");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--spans-dir", Arg.Set_string spans_dir, "D directory where the traced run writes its spans (required with --trace 1)");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
     || (!trace = 1 && String.equal !spans_dir "")
  then begin
    Arg.usage specs usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~spans_dir:!spans_dir
