(* Seeded input generation.  Everything here runs before any set-up
   clock starts; the same seed yields the same inputs. *)

module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Distribution = Pk_workload.Distribution

let key_len = 16

(* Keys in insertion (generation) order plus the permutation that sorts
   them, which bulk loading needs. *)
let keys ~rng ~alphabet n =
  let keys = Keygen.uniform ~rng ~key_len ~alphabet n in
  let sorted = Array.init n Fun.id in
  Array.sort (fun a b -> Key.compare keys.(a) keys.(b)) sorted;
  (keys, sorted)

(* {1 Read workloads} *)

type read = {
  keys : Key.t array;
  sorted : int array;
  probe_idx : int array;  (** Single-key lookup stream (key indexes). *)
  probes : Key.t array;
  batch_idx : int array array;  (** [lookup_into] batches of [batch] key indexes. *)
  batches : Key.t array array;
}

let batch = 64

(* Uniform successful lookups: consecutive random permutations of the
   key set, cut into a single-key stream and a batched stream. *)
let read ~seed ~alphabet ~n ~stream =
  let rng = Prng.create (Int64.of_int seed) in
  let keys, sorted = keys ~rng ~alphabet n in
  let perm = Array.init n Fun.id in
  let draw () =
    let out = Array.make stream 0 in
    for i = 0 to stream - 1 do
      if i mod n = 0 then Keygen.shuffle ~rng perm;
      out.(i) <- perm.(i mod n)
    done;
    out
  in
  let probe_idx = draw () in
  let flat = draw () in
  let batch_idx = Array.init (stream / batch) (fun b -> Array.sub flat (b * batch) batch) in
  {
    keys;
    sorted;
    probe_idx;
    probes = Array.map (fun i -> keys.(i)) probe_idx;
    batch_idx;
    batches = Array.map (Array.map (fun i -> keys.(i))) batch_idx;
  }

(* {1 The journaled OLTP workload}

   A universe of [2 * n0] distinct keys; slots [0, n0) are present after
   the bulk load.  Keys are drawn Zipf(0.99) over a random ranking of
   the universe.  Half the operations are lookups of a present key; the
   other half alternate between inserting an absent key with a fresh
   payload and deleting a present key, so the live count stays within
   one of [n0]. *)

let op_lookup = 0
let op_insert = 1
let op_delete = 2
let payload_len = 16

type oltp = {
  ukeys : Key.t array;  (** The universe, slot-indexed. *)
  n0 : int;
  init_payload : bytes array;  (** Payloads of the bulk-loaded slots. *)
  init_sorted : int array;  (** Slots [0, n0) in ascending key order. *)
  kind : int array;  (** Operation stream: kind, slot, payload. *)
  slot : int array;
  payload : bytes array;  (** Fresh payload of each insert ([Bytes.empty] otherwise). *)
  pass : int;  (** Operations per timed pass. *)
  pass_batches : int array array array;
      (** Per pass: [lookup_into] batches of slots present at the end of that pass. *)
  final_payload : bytes option array;  (** Per slot: the committed payload after the stream. *)
  cache_warm : Key.t array;  (** Present keys after the stream, for the cache simulator. *)
  cache_probes : Key.t array;
}

let payload_of n =
  let b = Bytes.create payload_len in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.set_int64_le b 8 (Int64.lognot (Int64.of_int n));
  b

let oltp ~seed ~n0 ~ops ~pass ~batches_per_pass ~cache_probes =
  let rng = Prng.create (Int64.of_int seed) in
  let u = 2 * n0 in
  let ukeys = Keygen.uniform ~rng ~key_len ~alphabet:Keygen.paper_high u in
  let init_sorted = Array.init n0 Fun.id in
  Array.sort (fun a b -> Key.compare ukeys.(a) ukeys.(b)) init_sorted;
  let rank = Array.init u Fun.id in
  Keygen.shuffle ~rng rank;
  let zipf = Distribution.sampler (Distribution.Zipf 0.99) ~n:u ~rng in
  let present = Array.init u (fun s -> s < n0) in
  let current = Array.init u (fun s -> if s < n0 then Some (payload_of s) else None) in
  let init_payload = Array.init n0 (fun s -> Option.get current.(s)) in
  (* Rejection-sample a slot in the wanted state; after 64 misses scan
     forward from the last draw (deterministic either way). *)
  let draw want =
    let rec go tries =
      let s = rank.(zipf ()) in
      if Bool.equal present.(s) want then s
      else if tries < 64 then go (tries + 1)
      else begin
        let s = ref s in
        while not (Bool.equal present.(!s) want) do
          s := (!s + 1) mod u
        done;
        !s
      end
    in
    go 0
  in
  let kind = Array.make ops op_lookup and slot = Array.make ops 0 in
  let payload = Array.make ops Bytes.empty in
  let next_insert = ref true in
  let draw_batches () =
    Array.init batches_per_pass (fun _ -> Array.init batch (fun _ -> draw true))
  in
  let pass_batches = Array.make (ops / pass) [||] in
  for i = 0 to ops - 1 do
    if Prng.int rng 2 = 0 then slot.(i) <- draw true
    else if !next_insert then begin
      let s = draw false in
      kind.(i) <- op_insert;
      slot.(i) <- s;
      payload.(i) <- payload_of (u + i);
      present.(s) <- true;
      current.(s) <- Some payload.(i);
      next_insert := false
    end
    else begin
      let s = draw true in
      kind.(i) <- op_delete;
      slot.(i) <- s;
      present.(s) <- false;
      current.(s) <- None;
      next_insert := true
    end;
    if (i + 1) mod pass = 0 then pass_batches.((i + 1) / pass - 1) <- draw_batches ()
  done;
  let present_keys () = Array.init cache_probes (fun _ -> ukeys.(draw true)) in
  let cache_warm = present_keys () in
  let cache_probes = present_keys () in
  {
    ukeys;
    n0;
    init_payload;
    init_sorted;
    kind;
    slot;
    payload;
    pass;
    pass_batches;
    final_payload = current;
    cache_warm;
    cache_probes;
  }
