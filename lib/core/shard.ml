(* Sharded multicore serving (see shard.mli for the protocol).  The
   aggregate access path is one more {!Engine.ops} record, so everything
   downstream — journaling, chaos, benches, the registry — composes
   with sharding for free. *)

module Key = Pk_keys.Key
module Obs = Pk_obs.Obs
module Prng = Pk_util.Prng
module Fault = Pk_fault.Fault

type ops = Engine.ops

module Partition = struct
  type t =
    | Hash of int
    | Range of Key.t array  (* strictly ascending split keys *)

  let hash n =
    if n < 1 then invalid_arg "Partition.hash: need at least one shard";
    Hash n

  let range splits =
    let n = Array.length splits in
    if n = 0 then invalid_arg "Partition.range: need at least one split key";
    for i = 1 to n - 1 do
      if Key.compare splits.(i - 1) splits.(i) >= 0 then
        invalid_arg "Partition.range: split keys must be strictly ascending"
    done;
    Range (Array.copy splits)

  let shards = function Hash n -> n | Range s -> Array.length s + 1

  (* 32-bit FNV-1a over the key bytes: deterministic across runs,
     allocation-free, and uniform enough to keep hash shards
     balanced.  Masked to 30 bits so the running product stays a
     nonnegative OCaml int. *)
  let fnv_prime = 0x01000193

  let[@pklint.hot] rec fnv_fold key len i h =
    if i >= len then h
    else
      fnv_fold key len (i + 1)
        (((h lxor Char.code (Bytes.unsafe_get key i)) * fnv_prime) land 0x3fffffff)

  let[@pklint.hot] hash_key key = fnv_fold key (Bytes.length key) 0 0x811c9dc5

  (* Binary search for the first split > key: shard [i] holds keys
     below splits.(i). *)
  let[@pklint.hot] rec split_search splits key lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Key.compare key splits.(mid) < 0 then split_search splits key lo mid
      else split_search splits key (mid + 1) hi

  let[@pklint.hot] route t key =
    match t with
    | Hash n -> hash_key key mod n
    | Range splits -> split_search splits key 0 (Array.length splits)

  let describe = function
    | Hash n -> Printf.sprintf "hash(%d)" n
    | Range s -> Printf.sprintf "range(%d)" (Array.length s + 1)
end

module Engine = struct
  type shard = {
    ix : ops;
    lock : Mutex.t;
        (* serialises this shard's mutators with reader epoch pins *)
    m_probes : Obs.Counter.t;
    m_mutations : Obs.Counter.t;
  }

  (* Scatter state for batched lookups.  The per-shard buffers are
     exact-size (the sub-index's [lookup_into] takes its batch size
     from the array length), re-allocated only when a shard's share of
     the batch changes — steady-state batches route identically and
     run allocation-free. *)
  type scatter = {
    mutable routes : int array;  (* per probe slot *)
    skeys : Key.t array array;  (* per shard: packed probe keys *)
    slots : int array array;  (* per shard: originating caller slot *)
    souts : int array array;  (* per shard: packed results *)
    counts : int array;
  }

  let make_scatter k =
    {
      routes = [||];
      skeys = Array.make k [||];
      slots = Array.make k [||];
      souts = Array.make k [||];
      counts = Array.make k 0;
    }

  type t = {
    stag : string;
    part : Partition.t;
    shards : shard array;
    sc : scatter;
    pin_lock : Mutex.t;
        (* serialises record-heap COW page captures (the one arena all
           shards share) against reader epoch pin/release *)
    trace : Obs.Trace.t;
    mutable cached_ops : ops option;
  }

  let create ~tag ~partition build =
    let n = Partition.shards partition in
    let shards =
      Array.init n (fun i ->
          let label = ("shard", string_of_int i) in
          {
            ix = build i;
            lock = Mutex.create ();
            m_probes =
              Obs.Counter.register ~label Obs.Registry.default
                ("pk_shard_probes_total{index=\"" ^ tag ^ "\"}");
            m_mutations =
              Obs.Counter.register ~label Obs.Registry.default
                ("pk_shard_mutations_total{index=\"" ^ tag ^ "\"}");
          })
    in
    {
      stag = tag;
      part = partition;
      shards;
      sc = make_scatter n;
      pin_lock = Mutex.create ();
      trace = Obs.Trace.create ();
      cached_ops = None;
    }

  let shard_count t = Array.length t.shards
  let sub t i = t.shards.(i).ix
  let route t key = Partition.route t.part key
  let record_write t f = Mutex.protect t.pin_lock f

  (* {2 Lock / guard nesting} — always in ascending shard order, so
     two multi-shard operations can never deadlock. *)

  let rec locked_when p (shards : shard array) i f =
    if i >= Array.length shards then f ()
    else if p i then Mutex.protect shards.(i).lock (fun () -> locked_when p shards (i + 1) f)
    else locked_when p shards (i + 1) f

  let rec guarded_when p (shards : shard array) i f =
    if i >= Array.length shards then f ()
    else if p i then shards.(i).ix.Engine.guard (fun () -> guarded_when p shards (i + 1) f)
    else guarded_when p shards (i + 1) f

  let always _ = true

  (* {2 Scatter / gather} *)

  let[@pklint.hot] scatter part (sc : scatter) keys =
    let n = Array.length keys in
    let k = Array.length sc.counts in
    (* Buffer (re)sizing happens only when the batch shape changes;
       the steady state replays the same shape against warm buffers. *)
    if Array.length sc.routes < n then (sc.routes <- Array.make n 0) [@pklint.cold];
    Array.fill sc.counts 0 k 0;
    for i = 0 to n - 1 do
      let r = Partition.route part keys.(i) in
      sc.routes.(i) <- r;
      sc.counts.(r) <- sc.counts.(r) + 1
    done;
    for s = 0 to k - 1 do
      let c = sc.counts.(s) in
      if Array.length sc.skeys.(s) <> c then
        (sc.skeys.(s) <- Array.make c Bytes.empty;
         sc.slots.(s) <- Array.make c 0;
         sc.souts.(s) <- Array.make c 0)
        [@pklint.cold];
      sc.counts.(s) <- 0
    done;
    for i = 0 to n - 1 do
      let r = sc.routes.(i) in
      let c = sc.counts.(r) in
      sc.skeys.(r).(c) <- keys.(i);
      sc.slots.(r).(c) <- i;
      sc.counts.(r) <- c + 1
    done

  let[@pklint.hot] gather (sc : scatter) s out =
    let slots = sc.slots.(s) and outs = sc.souts.(s) in
    for j = 0 to Array.length slots - 1 do
      out.(slots.(j)) <- outs.(j)
    done

  let[@pklint.hot] lookup_into_aux tag part sc (subs : ops array) keys out =
    let n = Array.length keys in
    if Array.length out < n then
      (invalid_arg (tag ^ ".lookup_into: result array too small")) [@pklint.cold];
    scatter part sc keys;
    for s = 0 to Array.length subs - 1 do
      if sc.counts.(s) > 0 then begin
        subs.(s).Engine.lookup_into sc.skeys.(s) sc.souts.(s);
        gather sc s out
      end
    done

  (* {2 Merged iteration} — a persistent k-way merge of the per-shard
     cursors; shards partition the keyspace, so the merge of ascending
     per-shard sequences is the ascending global sequence. *)

  let rec merge_nodes (nodes : (Key.t * int) Seq.node array) () =
    let best = ref (-1) in
    for i = 0 to Array.length nodes - 1 do
      match nodes.(i) with
      | Seq.Nil -> ()
      | Seq.Cons ((k, _), _) -> (
          if !best < 0 then best := i
          else
            match nodes.(!best) with
            | Seq.Cons ((bk, _), _) -> if Key.compare k bk < 0 then best := i
            | Seq.Nil -> assert false)
    done;
    if !best < 0 then Seq.Nil
    else
      match nodes.(!best) with
      | Seq.Cons (kv, rest) ->
          let b = !best in
          Seq.Cons
            ( kv,
              fun () ->
                let next = Array.copy nodes in
                next.(b) <- rest ();
                merge_nodes next () )
      | Seq.Nil -> assert false

  let merged_from (subs : ops array) from () =
    merge_nodes (Array.map (fun ix -> ix.Engine.seq_from from ()) subs) ()

  let m_iter subs f =
    Seq.iter (fun (key, rid) -> f ~key ~rid) (merged_from subs Bytes.empty)

  let m_range subs ~lo ~hi f =
    let rec go node =
      match node with
      | Seq.Nil -> ()
      | Seq.Cons ((key, rid), rest) ->
          if Key.compare key hi <= 0 then begin
            f ~key ~rid;
            go (rest ())
          end
    in
    go (merged_from subs lo ())

  let sum f (subs : ops array) = Array.fold_left (fun acc ix -> acc + f ix) 0 subs

  let validate_parts tag part (subs : ops array) =
    Array.iteri
      (fun i (ix : ops) ->
        ix.Engine.validate ();
        ix.Engine.iter (fun ~key ~rid:_ ->
            let want = Partition.route part key in
            if want <> i then
              failwith
                (Printf.sprintf "%s: key %s stored in shard %d, routes to %d" tag
                   (Key.to_hex key) i want)))
      subs

  (* Pin one shard's epoch.  Caller holds the shard lock, so no
     mutation of this shard is in flight and the pinned version word
     is even; the pin lock serialises the record-heap shadow attach
     against other pinners and [record_write]. *)
  let pin_sub t i =
    Mutex.protect t.pin_lock (fun () -> t.shards.(i).ix.Engine.snapshot ())

  let release_sub t (ep : ops) = Mutex.protect t.pin_lock ep.Engine.release

  (* {2 The aggregate access path} *)

  let rec make_ops t =
    let subs = Array.map (fun s -> s.ix) t.shards in
    let routed_mut key =
      let i = Partition.route t.part key in
      Obs.Trace.emit t.trace Obs.Trace.k_route i 0;
      let s = t.shards.(i) in
      Obs.Counter.incr s.m_mutations;
      s
    in
    let lookup_into keys out =
      lookup_into_aux t.stag t.part t.sc subs keys out;
      for s = 0 to Array.length subs - 1 do
        let c = t.sc.counts.(s) in
        if c > 0 then Obs.Counter.add t.shards.(s).m_probes c
      done
    in
    let involved i = t.sc.counts.(i) > 0 in
    let insert_batch keys ~rids =
      let n = Array.length keys in
      if Array.length rids <> n then
        invalid_arg (t.stag ^ ".insert_batch: keys and rids must have the same length");
      let res = Array.make n false in
      if n > 0 then begin
        scatter t.part t.sc keys;
        locked_when involved t.shards 0 (fun () ->
            guarded_when involved t.shards 0 (fun () ->
                for s = 0 to Array.length subs - 1 do
                  let c = t.sc.counts.(s) in
                  if c > 0 then begin
                    let slots = t.sc.slots.(s) in
                    let sres =
                      subs.(s).Engine.insert_batch t.sc.skeys.(s)
                        ~rids:(Array.init c (fun j -> rids.(slots.(j))))
                    in
                    Obs.Counter.add t.shards.(s).m_mutations c;
                    for j = 0 to c - 1 do
                      res.(slots.(j)) <- sres.(j)
                    done
                  end
                done))
      end;
      res
    in
    let delete_batch keys =
      let n = Array.length keys in
      let res = Array.make n false in
      if n > 0 then begin
        scatter t.part t.sc keys;
        locked_when involved t.shards 0 (fun () ->
            guarded_when involved t.shards 0 (fun () ->
                for s = 0 to Array.length subs - 1 do
                  let c = t.sc.counts.(s) in
                  if c > 0 then begin
                    let sres = subs.(s).Engine.delete_batch t.sc.skeys.(s) in
                    Obs.Counter.add t.shards.(s).m_mutations c;
                    for j = 0 to c - 1 do
                      res.(t.sc.slots.(s).(j)) <- sres.(j)
                    done
                  end
                done))
      end;
      res
    in
    let of_sorted ?gap ~fill entries =
      (* A stable partition of ascending entries keeps each shard's
         slice strictly ascending, as its bulk load requires. *)
      let k = Array.length subs in
      let counts = Array.make k 0 in
      Array.iter
        (fun (key, _) ->
          let r = Partition.route t.part key in
          counts.(r) <- counts.(r) + 1)
        entries;
      let parts = Array.init k (fun s -> Array.make counts.(s) (Bytes.empty, 0)) in
      Array.fill counts 0 k 0;
      Array.iter
        (fun entry ->
          let r = Partition.route t.part (fst entry) in
          parts.(r).(counts.(r)) <- entry;
          counts.(r) <- counts.(r) + 1)
        entries;
      locked_when always t.shards 0 (fun () ->
          guarded_when always t.shards 0 (fun () ->
              Array.iteri
                (fun s part ->
                  if Array.length part > 0 then begin
                    subs.(s).Engine.of_sorted ?gap ~fill part;
                    Obs.Counter.add t.shards.(s).m_mutations (Array.length part)
                  end)
                parts))
    in
    let compact ?gap () =
      (* Each sub's compact runs under its own guard too; nesting every
         shard's guard here makes a crash mid-way all-or-nothing across
         the whole aggregate, matching batch mutators. *)
      locked_when always t.shards 0 (fun () ->
          guarded_when always t.shards 0 (fun () ->
              Array.iter (fun (ix : ops) -> ix.Engine.compact ?gap ()) subs))
    in
    {
      Engine.tag = t.stag;
      insert =
        (fun key ~rid ->
          let s = routed_mut key in
          Mutex.protect s.lock (fun () -> s.ix.Engine.insert key ~rid));
      lookup =
        (fun key ->
          let i = Partition.route t.part key in
          Obs.Trace.emit t.trace Obs.Trace.k_route i 0;
          Obs.Counter.incr t.shards.(i).m_probes;
          t.shards.(i).ix.Engine.lookup key);
      delete =
        (fun key ->
          let s = routed_mut key in
          Mutex.protect s.lock (fun () -> s.ix.Engine.delete key));
      lookup_into;
      insert_batch;
      delete_batch;
      of_sorted;
      compact;
      iter = (fun f -> m_iter subs f);
      range = (fun ~lo ~hi f -> m_range subs ~lo ~hi f);
      seq_from = (fun from -> merged_from subs from);
      count = (fun () -> sum (fun ix -> ix.Engine.count ()) subs);
      height = (fun () -> Array.fold_left (fun acc ix -> max acc (ix.Engine.height ())) 0 subs);
      node_count = (fun () -> sum (fun ix -> ix.Engine.node_count ()) subs);
      space_bytes = (fun () -> sum (fun ix -> ix.Engine.space_bytes ()) subs);
      deref_count = (fun () -> sum (fun ix -> ix.Engine.deref_count ()) subs);
      node_visits = (fun () -> sum (fun ix -> ix.Engine.node_visits ()) subs);
      reset_counters = (fun () -> Array.iter (fun ix -> ix.Engine.reset_counters ()) subs);
      trace = t.trace;
      validate = (fun () -> validate_parts t.stag t.part subs);
      version = (fun () -> sum (fun ix -> ix.Engine.version ()) subs);
      validated =
        (fun v ->
          (* Versions only grow, so "every word even and the sum
             unchanged" implies every word unchanged. *)
          let total = ref 0 and even = ref true in
          Array.iter
            (fun (ix : ops) ->
              let w = ix.Engine.version () in
              if w land 1 = 1 then even := false;
              total := !total + w)
            subs;
          !even && !total = v);
      guard = (fun f -> guarded_when always t.shards 0 f);
      layout = (fun () -> None);
      snapshot = (fun () -> snapshot t);
      release = (fun () -> invalid_arg (t.stag ^ ".release: not a snapshot view"));
    }

  (* One read-only aggregate over every shard's pinned epoch: the same
     access path over the epochs, with its own scatter buffers, trace
     and unregistered probe counters, so snapshot reads neither race
     the live batch scratch nor count as live probes. *)
  and snapshot t =
    let subs =
      Array.mapi
        (fun i s -> Mutex.protect s.lock (fun () -> pin_sub t i))
        t.shards
    in
    let pinned = Array.fold_left (fun acc (ix : ops) -> acc + ix.Engine.version ()) 0 subs in
    let view =
      {
        t with
        stag = t.stag ^ "@snap";
        shards =
          Array.map2
            (fun s ix -> { s with ix; m_probes = Obs.Counter.nop (); m_mutations = Obs.Counter.nop () })
            t.shards subs;
        sc = make_scatter (Array.length subs);
        trace = Obs.Trace.create ();
        cached_ops = None;
      }
    in
    Engine.read_only_view ~pinned
      ~on_release:(fun () -> Array.iter (fun (ix : ops) -> ix.Engine.release ()) subs)
      (make_ops view)

  let ops t =
    match t.cached_ops with
    | Some o -> o
    | None ->
        let o = make_ops t in
        t.cached_ops <- Some o;
        o

  (* {2 Domain fan-out for quiescent batched lookups} *)

  let lookup_into_domains t ~domains keys out =
    if domains < 1 then invalid_arg (t.stag ^ ".lookup_into_domains: need at least one domain");
    let subs = Array.map (fun s -> s.ix) t.shards in
    if domains = 1 then lookup_into_aux t.stag t.part t.sc subs keys out
    else begin
      let n = Array.length keys in
      if Array.length out < n then
        invalid_arg (t.stag ^ ".lookup_into_domains: result array too small");
      let k = Array.length subs in
      scatter t.part t.sc keys;
      let d = min domains k in
      let workers =
        Array.init d (fun w ->
            Domain.spawn (fun () ->
                let s = ref w in
                while !s < k do
                  if t.sc.counts.(!s) > 0 then
                    subs.(!s).Engine.lookup_into t.sc.skeys.(!s) t.sc.souts.(!s);
                  s := !s + d
                done))
      in
      Array.iter Domain.join workers;
      for s = 0 to k - 1 do
        if t.sc.counts.(s) > 0 then gather t.sc s out
      done
    end

  (* {2 Optimistic cross-domain readers} *)

  (* Reader restart budget and backoff schedule (see [backoff_pause]
     in shard.mli). *)
  let max_attempts = 8
  let base_pause = 0.001
  let max_pause = 0.1
  let jitter = 0.5

  let backoff_pause rng ~attempt =
    let capped = Float.min (base_pause *. (2.0 ** float_of_int (attempt - 1))) max_pause in
    let u = Prng.float rng 1.0 in
    capped *. (1.0 +. (jitter *. ((2.0 *. u) -. 1.0)))

  type reader = {
    eng : t;
    rng : Prng.t;
    epochs : ops option array;
    pins : int array;
    mutable n_restarts : int;
    mutable torn : bool;
        (* scratch: the last optimistic attempt raised mid-descent;
           reset before every retry *)
    m_restarts : Obs.Counter.t;
  }

  let reader ?(seed = 0) eng =
    {
      eng;
      rng = Prng.create (Int64.of_int seed);
      epochs = Array.make (Array.length eng.shards) None;
      pins = Array.make (Array.length eng.shards) 0;
      n_restarts = 0;
      torn = false;
      m_restarts =
        Obs.Counter.register Obs.Registry.default
          ("pk_lock_restarts_total{index=\"" ^ eng.stag ^ "\"}");
    }

  (* Caller holds the shard lock: the version word is even and the
     epoch it stamps is exactly the tree the snapshot pins. *)
  let repin_locked rd i =
    (match rd.epochs.(i) with
    | Some ep ->
        rd.epochs.(i) <- None;
        release_sub rd.eng ep
    | None -> ());
    rd.pins.(i) <- rd.eng.shards.(i).ix.Engine.version ();
    rd.epochs.(i) <- Some (pin_sub rd.eng i)

  let repin rd i =
    Mutex.protect rd.eng.shards.(i).lock (fun () -> repin_locked rd i)

  let backoff rd ~attempt =
    let pause = backoff_pause rd.rng ~attempt in
    (* No wall-clock sleep: scale the draw into cpu_relax spins so the
       schedule stays deterministic and tests stay fast. *)
    let spins = min (int_of_float (pause *. 1e6)) 50_000 in
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done

  let restarts rd = rd.n_restarts

  (* Restart bookkeeping and backoff, off the validated fast path.
     The restart counter lives in the reader handle, which is owned by
     the domain that created it (audited: handles are never shared
     across domains — see [reader]). *)
  let[@pklint.cold] note_restart rd attempt =
    (rd.n_restarts <- rd.n_restarts + 1) [@pklint.allow "domain-shared-mutation"];
    Obs.Counter.incr rd.m_restarts;
    Obs.Trace.emit rd.eng.trace Obs.Trace.k_restart attempt 0;
    backoff rd ~attempt

  (* One optimistic attempt against the pinned epoch, retried through
     [note_restart]/[repin] until validation passes or the attempt
     budget forces the locked fallback. *)
  let rec read_attempt rd (s : shard) i key attempt =
    if attempt > max_attempts then
      (* Bounded restarts: one read in a short critical section with
         the shard's writer, leaving a fresh pin behind. *)
      (Mutex.protect s.lock (fun () ->
           repin_locked rd i;
           (match rd.epochs.(i) with Some ep -> ep | None -> assert false).Engine.lookup key))
      [@pklint.cold]
    else begin
      (match rd.epochs.(i) with
      | None -> (repin rd i) [@pklint.cold] (* first touch of this shard *)
      | Some _ -> ());
      let ep = match rd.epochs.(i) with Some ep -> ep | None -> assert false in
      (* A torn read under a racing mutator can surface as an exception
         from the epoch descent; validation below rejects the attempt
         either way ([torn] is reader-handle scratch, domain-confined
         like [n_restarts]).  Injected faults must keep propagating for
         the chaos harness. *)
      let res =
        (try ep.Engine.lookup key with
        | Fault.Injected _ as e -> raise e
        | _ ->
            (rd.torn <- true) [@pklint.allow "domain-shared-mutation"];
            None)
        [@pklint.allow "no-swallow"]
      in
      if (not rd.torn) && s.ix.Engine.validated rd.pins.(i) then res
      else
        (* Validation failed: the pin is stale or a mutation is in
           flight.  Count the restart, back off, take a fresh pin
           (waiting out any in-flight mutator on the shard lock), and
           retry. *)
        ((rd.torn <- false) [@pklint.allow "domain-shared-mutation"];
         note_restart rd attempt;
         repin rd i;
         read_attempt rd s i key (attempt + 1))
        [@pklint.cold]
    end

  let[@pklint.hot] read rd key =
    let i = Partition.route rd.eng.part key in
    read_attempt rd rd.eng.shards.(i) i key 1

  let release_reader rd =
    for i = 0 to Array.length rd.epochs - 1 do
      match rd.epochs.(i) with
      | None -> ()
      | Some ep ->
          (* Clear the slot and drop the pin in one shard critical
             section: the slot write then orders with the writer's
             epoch reclamation rather than racing past it. *)
          Mutex.protect rd.eng.shards.(i).lock (fun () ->
              rd.epochs.(i) <- None;
              release_sub rd.eng ep)
    done
end
