(* Shared traversal/maintenance engine for the index structures.

   The three index structures ({!module:Btree}, {!module:Ttree},
   {!module:Prefix_btree}) expose one access path: batched lookups by
   group descent, sorted batch mutations under one unwind scope,
   bottom-up bulk load, spine-stack cursors and counter plumbing.  This
   module implements that path once; each tree supplies only its
   per-structure primitives through {!module-type:STRUCTURE} and is
   rebuilt into the uniform closure record {!type:ops} by
   {!module:Make}[.wrap].

   There is one read path.  A single-key [lookup] is a one-probe batch:
   it runs [lookup_into] on a one-slot scratch pair, which skips the
   sort and descends through the same per-tree hooks ([route] /
   [leaf_probe], [classify] / [final]) the group drivers call, so the
   trees carry no separate single-key descent.

   Everything on the lookup path is written so that a steady-state
   batch performs no OCaml heap allocation per probe (asserted by the
   test suite via [Gc.minor_words]): the drivers are top-level
   recursive functions over int state, per-probe state lives in
   reusable scratch arrays, and the per-tree hooks are closures created
   once per tree and cached. *)

module Mem = Pk_mem.Mem
module Fault = Pk_fault.Fault
module Key = Pk_keys.Key
module Record_store = Pk_records.Record_store
module Partial_key = Pk_partialkey.Partial_key
module Pk_compare = Pk_partialkey.Pk_compare
module Node_search = Pk_partialkey.Node_search
module Obs = Pk_obs.Obs

let null = Pk_arena.Arena.null

(* {2 Scratch-array sizing}

   The batched descent keeps per-probe state in reusable arrays owned
   by the tree; they grow to the largest batch seen and are then stable,
   so steady-state batches allocate nothing. *)

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)
let pow2_at_least n = pow2_at_least (max n 1) 16

(* {2 Probe ordering}

   Fill [perm] with the identity and [pks] with each probe's packed
   prefix, then sort the slots with {!Keysort}: keys ascend, byte-equal
   keys keep batch order, no heap allocation. *)

let[@pklint.hot] sort_probes (perm : int array) (pks : int array) (keys : Key.t array) n =
  for i = 0 to n - 1 do
    perm.(i) <- i;
    pks.(i) <- Keysort.pack keys.(i)
  done;
  Keysort.sort_perm pks keys perm n

let check_rids keys ~rids =
  if Array.length rids <> Array.length keys then
    invalid_arg "insert_batch: keys and rids must have the same length"

(* {2 Bulk-load pass helpers}

   Each tree's bulk load is one ordered pass over the in-hand
   [(key, rid)] array that writes the entries, checks the order and
   encodes partial keys from the in-hand keys.  Every order violation
   raises through [not_ascending], so all trees report it alike. *)

let not_ascending name =
  invalid_arg (name ^ ".bulk_load: keys must be strictly ascending")

let check_ascending name prev key = if Key.compare prev key >= 0 then not_ascending name

(* Read the first byte of the keys of entries [g, hi) (clamped to the
   array) and add them to [acc].  No iteration depends on another's load, so the cache
   misses of a whole node's keys overlap; the loader runs this on the
   next node's keys before it encodes the current one.  Plain heap
   reads: no [Mem] access, no fault point, no charge.  The caller keeps
   the sum live ([Sys.opaque_identity]) so the loads stay. *)
let[@pklint.hot] rec touch_keys (entries : (Key.t * int) array) g hi acc =
  if g >= hi || g >= Array.length entries then acc
  else
    let k = fst (Array.unsafe_get entries g) in
    touch_keys entries (g + 1) hi
      (if Bytes.length k = 0 then acc else acc + Char.code (Bytes.unsafe_get k 0))

(* {2 Counters} *)

module Counters = struct
  type t = {
    mutable derefs : int;
    mutable visits : int;
    mutable unwinds : int;
    mutable m_derefs : Obs.Counter.t;
    mutable m_visits : Obs.Counter.t;
    mutable m_unwinds : Obs.Counter.t;
    trace : Obs.Trace.t;
  }

  let create () =
    {
      derefs = 0;
      visits = 0;
      unwinds = 0;
      m_derefs = Obs.Counter.nop ();
      m_visits = Obs.Counter.nop ();
      m_unwinds = Obs.Counter.nop ();
      trace = Obs.Trace.create ();
    }

  (* Resetting also withdraws this tree's contribution from the shared
     registry series, so a series total always equals the sum of the
     live per-tree counts — [pkbench --metrics] checks exactly that. *)
  let reset c =
    Obs.Counter.add c.m_derefs (-c.derefs);
    Obs.Counter.add c.m_visits (-c.visits);
    Obs.Counter.add c.m_unwinds (-c.unwinds);
    c.derefs <- 0;
    c.visits <- 0;
    c.unwinds <- 0

  (* Resolve the per-index registry series once, at scheme-build time;
     the hot paths below update through the returned handles only. *)
  let attach c ~tag =
    let reg = Obs.Registry.default in
    c.m_derefs <- Obs.Counter.register reg ("pk_index_derefs_total{index=\"" ^ tag ^ "\"}");
    c.m_visits <- Obs.Counter.register reg ("pk_index_visits_total{index=\"" ^ tag ^ "\"}");
    c.m_unwinds <- Obs.Counter.register reg ("pk_index_unwinds_total{index=\"" ^ tag ^ "\"}")

  let[@pklint.hot] deref c node entry =
    c.derefs <- c.derefs + 1;
    Obs.Counter.incr c.m_derefs;
    Obs.Trace.emit c.trace Obs.Trace.k_deref node entry

  let[@pklint.hot] visit c node =
    c.visits <- c.visits + 1;
    Obs.Counter.incr c.m_visits;
    Obs.Trace.emit c.trace Obs.Trace.k_visit node 0

  let unwind c =
    c.unwinds <- c.unwinds + 1;
    Obs.Counter.incr c.m_unwinds;
    Obs.Trace.emit c.trace Obs.Trace.k_unwind 0 0
end

(* {2 Per-tree batch scratch}

   One record per tree holding every reusable per-probe array the
   drivers need; which arrays a tree grows is its own business
   ([prepare_batch]).  [keys]/[out] are re-aimed at the caller's arrays
   for the duration of a batched lookup so the cached per-tree hook
   closures can reach them without per-call closure creation;
   [one_key]/[one_out] are the one-slot pair a single-key lookup runs
   through.  [node]/[probe] aim the tree's cached FINDNODE ops at one
   (node, probe) pair; the hooks store [probe] only when it changes, so
   a one-probe descent pays its write barrier once, not per node. *)

module Scratch = struct
  type t = {
    mutable perm : int array;  (* sorted probe permutation *)
    mutable pks : int array;  (* per-probe packed prefix (sort tag) *)
    mutable rel : Key.cmp array;  (* per-probe FINDNODE rel state *)
    mutable off : int array;  (* per-probe FINDNODE offset state *)
    mutable la : int array;  (* per-probe offset at the last Gt ancestor *)
    mutable sign : int array;  (* per-probe sign at the current node *)
    mutable keys : Key.t array;  (* current batch's probes *)
    mutable out : int array;  (* current batch's result slots *)
    one_key : Key.t array;  (* single-key lookup's probe slot *)
    one_out : int array;  (* single-key lookup's result slot *)
    mutable node : int;  (* node the FINDNODE ops read *)
    mutable probe : Key.t;  (* probe the FINDNODE ops read *)
  }

  let create () =
    {
      perm = [||];
      pks = [||];
      rel = [||];
      off = [||];
      la = [||];
      sign = [||];
      keys = [||];
      out = [||];
      one_key = [| Bytes.empty |];
      one_out = [| -1 |];
      node = null;
      probe = Bytes.empty;
    }

  (* Each array is replaced only when it must grow: storing a boxed
     field pays the write barrier, so steady-state calls store none. *)

  let grow_perm sc n =
    if Array.length sc.perm < n then begin
      let cap = pow2_at_least n in
      sc.perm <- Array.make cap 0;
      sc.pks <- Array.make cap 0
    end

  let grow_sign sc n = if Array.length sc.sign < n then sc.sign <- Array.make (pow2_at_least n) 0

  (* Grow the FINDNODE state ([rel], [off], [la]) and seed each probe's
     (rel, off) with its initial state against the virtual zero key. *)
  let seed_findnode sc g (keys : Key.t array) n =
    if Array.length sc.rel < n then begin
      let cap = pow2_at_least n in
      sc.rel <- Array.make cap Key.Eq;
      sc.off <- Array.make cap 0;
      sc.la <- Array.make cap 0
    end;
    for i = 0 to n - 1 do
      let p = Partial_key.initial_state g keys.(i) in
      sc.rel.(i) <- Key.packed_cmp p;
      sc.off.(i) <- Key.packed_off p
    done
end

(* {2 Fault-guard wrapping}

   Exception safety for the maintenance paths: keep the scalar header
   in locals, run the operation under the arena undo journal, and
   restore both on any exception (an injected fault, an allocation
   failure).  The caller observes either the completed operation or the
   exact pre-operation tree.  The operation is a function and its
   arguments rather than a thunk, and the header is saved field by
   field rather than as a tuple, so a single-key mutation's scope
   allocates nothing. *)

type 'a header = { get : 'a -> int -> int; set : 'a -> int -> int -> unit }

let guarded ~reg ~cnt h op t a b =
  if not (Fault.unwind_enabled ()) then op t a b
  else begin
    let h0 = h.get t 0 and h1 = h.get t 1 and h2 = h.get t 2 and h3 = h.get t 3 in
    try Mem.guard reg op t a b
    with e ->
      Counters.unwind cnt;
      h.set t 0 h0;
      h.set t 1 h1;
      h.set t 2 h2;
      h.set t 3 h3;
      raise e
  end

let run_thunk _ f () = f ()

(* The writer's side of a seqlock: [ver] is odd while [op t a b] runs
   and even again once it returns or raises.  The operation is called
   directly rather than through a thunk, so a single-key mutation
   allocates nothing here.  The seqlock automaton reads the unwind
   arm's closing bump as a reopening — it does not join the arms of a
   match (DESIGN.md §16) — hence the allow. *)
let[@pklint.allow "seqlock-protocol"] mutating ver op t a b =
  Atomic.incr ver;
  match op t a b with
  | v ->
      Atomic.incr ver;
      v
  | exception e ->
      Atomic.incr ver;
      raise e

(* {2 Entry-layout helpers}

   The scheme-dependent entry code shared by the fixed-size-entry trees
   (B-tree and T-tree): address arithmetic, key access, partial-key
   maintenance, and the comparison primitives — the one in-node search
   and FINDNODE's entry ops.  A [ctx] captures everything the helpers
   need so trees keep no copies of this logic. *)

module Entries = struct
  type ctx = {
    name : string;  (* for error messages, e.g. "Btree" *)
    reg : Mem.region;
    records : Record_store.t;
    scheme : Layout.scheme;
    esz : int;
    entries_at : int;  (* offset of the entry array within a node *)
    cnt : Counters.t;
    units : bytes;
        (* reusable window: the lookup path reads stored units into it,
           the encoder assembles a partial-key field image in it *)
    mutable key_win : bytes;
    mutable base_win : bytes;
        (* reusable windows [fix_pk] copies an entry's record key and
           its base's record key into; grown by doubling *)
  }

  let make ~name ~reg ~records ~scheme ~entries_at cnt =
    let units, win =
      match scheme with
      | Layout.Partial { l_bytes; _ } ->
          (Bytes.create (Layout.pk_image_bytes ~l_bytes), Bytes.create 32)
      | Layout.Direct _ | Layout.Indirect -> (Bytes.empty, Bytes.empty)
    in
    { name; reg; records; scheme; esz = Layout.entry_size scheme; entries_at; cnt; units;
      key_win = win; base_win = Bytes.copy win }

  let entry_addr c node i = node + c.entries_at + (i * c.esz)
  let rec_ptr c node i = Layout.rec_ptr c.reg (entry_addr c node i)

  (* Full key of entry [i], from the node (direct) or the record. *)
  let entry_key c node i =
    match c.scheme with
    | Layout.Direct { key_len } -> Layout.read_direct_key c.reg (entry_addr c node i) ~key_len
    | Layout.Indirect | Layout.Partial _ -> Record_store.read_key c.records (rec_ptr c node i)

  let granularity c =
    match c.scheme with
    | Layout.Partial { granularity; _ } -> granularity
    | Layout.Direct _ | Layout.Indirect -> assert false

  let l_bytes c =
    match c.scheme with
    | Layout.Partial { l_bytes; _ } -> l_bytes
    | Layout.Direct _ | Layout.Indirect -> assert false

  let is_partial c = match c.scheme with Layout.Partial _ -> true | _ -> false
  let[@inline] imin (a : int) b = if a < b then a else b
  let[@inline] imax (a : int) b = if a > b then a else b

  (* Re-derive entry [i]'s stored partial key with the reference
     encoder over copied-out record keys, and fail on mismatch
     (validators). *)
  let check_pk c node i ~base =
    let g = granularity c and l_bytes = l_bytes c in
    let key = entry_key c node i in
    let base = if i = 0 then base else rec_ptr c node (i - 1) in
    let expect =
      if base = null then Partial_key.encode_initial g ~l_bytes ~key
      else Partial_key.encode g ~l_bytes ~base:(Record_store.read_key c.records base) ~key
    in
    let got = Layout.read_pk c.reg (entry_addr c node i) ~granularity:g in
    if
      got.Partial_key.pk_off <> expect.Partial_key.pk_off
      || got.Partial_key.pk_len <> expect.Partial_key.pk_len
      || not (Bytes.equal got.Partial_key.pk_bits expect.Partial_key.pk_bits)
    then
      Printf.ksprintf failwith "node %d entry %d: pk mismatch (off %d/%d len %d/%d)" node i
        got.Partial_key.pk_off expect.Partial_key.pk_off got.Partial_key.pk_len
        expect.Partial_key.pk_len

  let[@pklint.guarded] blit_entries c ~src ~src_i ~dst ~dst_i ~n =
    if n > 0 then
      if src = dst then
        Mem.move c.reg ~src_off:(entry_addr c src src_i) ~dst_off:(entry_addr c dst dst_i)
          ~len:(n * c.esz)
      else
        let tmp = Mem.read_bytes c.reg ~off:(entry_addr c src src_i) ~len:(n * c.esz) in
        Mem.write_bytes c.reg ~off:(entry_addr c dst dst_i) ~src:tmp ~src_off:0 ~len:(n * c.esz)

  (* Write the payload of entry [i] (record pointer + inline key for
     the direct scheme); partial-key fields are fixed separately. *)
  let[@pklint.guarded] write_entry c node i ~key ~rid =
    let a = entry_addr c node i in
    Layout.set_rec_ptr c.reg a rid;
    match c.scheme with
    | Layout.Direct { key_len } ->
        if Bytes.length key <> key_len then
          invalid_arg
            (Printf.sprintf "%s: direct scheme expects %d-byte keys, got %d" c.name key_len
               (Bytes.length key));
        Layout.write_direct_key c.reg a key
    | Layout.Indirect | Layout.Partial _ -> ()

  let byte_or_zero k i = if i < Bytes.length k then Char.code (Bytes.get k i) else 0

  let bit_or_zero k i =
    if i >= 8 * Bytes.length k then 0
    else (Char.code (Bytes.get k (i lsr 3)) lsr (7 - (i land 7))) land 1

  (* {3 The partial-key encoder}

     One encoder derives an entry's field from a key and its base, both
     held in bytes: a bulk load passes the keys it holds, [fix_pk]
     windows into which it copies the two record keys.  Each key is a
     [(bytes, length)] pair, because a window is longer than the key in
     it.  [diff_bytes] is the one comparison per entry: its packed sign
     is the loader's order check, its offset the byte-granularity
     difference. *)

  (* Packed (sign of c(key, base), first differing byte); a proper
     prefix sorts first, its difference at the shorter length. *)
  let[@pklint.hot] rec diff_bytes (key : Key.t) len (base : Key.t) base_len i common =
    if i = common then Key.pack_sign (Int.compare len base_len) common
    else
      let x = Char.code (Bytes.unsafe_get key i) and y = Char.code (Bytes.unsafe_get base i) in
      if x = y then diff_bytes key len base base_len (i + 1) common
      else Key.pack_sign (if x < y then -1 else 1) i

  let[@pklint.hot] rec first_nonzero (k : Key.t) len i =
    if i = len || Bytes.unsafe_get k i <> '\000' then i else first_nonzero k len (i + 1)

  (* First set bit of [k]'s first [len] bytes at or after byte [i];
     [8 * len] when none. *)
  let[@pklint.hot] first_set_bit (k : Key.t) len i =
    let j = first_nonzero k len i in
    if j = len then 8 * j
    else (8 * j) + Pk_keys.Bitops.leading_zeros8 (Char.code (Bytes.unsafe_get k j))

  let[@inline] byte_below (k : Key.t) len i = if i < len then Char.code (Bytes.unsafe_get k i) else 0

  (* Store entry [i]'s field for [key] with difference offset [d] (in
     the scheme's units): the [l] bytes from the difference byte on, or
     the [8 l] bits after the difference bit, assembled in the [units]
     window — zero past the live units, bits past the key's end read as
     zero — and written with one [Layout.write_pk_image]. *)
  let[@pklint.guarded] [@pklint.hot] store_pk c node i (key : Key.t) len d =
    let l = l_bytes c and u0 = Layout.pk_image_units in
    let units = c.units in
    Bytes.fill units u0 (l + 1) '\000';
    let pk_len =
      match granularity c with
      | Partial_key.Byte ->
          let w = imin l (imax 0 (len - d)) in
          Bytes.blit key d units u0 w;
          w
      | Partial_key.Bit ->
          let first = d + 1 in
          let width = imin (8 * l) (imax 0 ((8 * len) - first)) in
          let q = first lsr 3 and sh = first land 7 in
          for j = 0 to ((width + 7) / 8) - 1 do
            let hi = byte_below key len (q + j) and lo = byte_below key len (q + j + 1) in
            Bytes.unsafe_set units (u0 + j)
              (Char.unsafe_chr (((hi lsl sh) lor (lo lsr (8 - sh))) land 0xff))
          done;
          width
    in
    Layout.write_pk_image c.reg (entry_addr c node i) ~image:units ~pk_off:d ~pk_len ~l_bytes:l

  (* Encode entry [i]'s field for [key] against [base]; returns the sign
     of c(key, base), 0 — storing nothing — when they are equal.  Under
     bit granularity, bits past a key's end read as zero, so a proper
     prefix differs at the longer key's first set bit past it.  Partial
     schemes only. *)
  let[@pklint.guarded] [@pklint.hot] encode_pk c node i (key : Key.t) ~len ~(base : Key.t)
      ~base_len =
    let p = diff_bytes key len base base_len 0 (imin len base_len) in
    let s = Key.packed_sign p and o = Key.packed_off p in
    if s <> 0 then begin
      let d =
        match granularity c with
        | Partial_key.Byte -> o
        | Partial_key.Bit ->
            if o < len && o < base_len then
              (8 * o)
              + Pk_keys.Bitops.leading_zeros8
                  (Char.code (Bytes.unsafe_get key o) lxor Char.code (Bytes.unsafe_get base o))
            else
              let long_len = if s > 0 then len else base_len in
              let b = if s > 0 then first_set_bit key len o else first_set_bit base base_len o in
              if b = 8 * long_len then
                (invalid_arg (c.name ^ ": a key equals its base once zero-padded")
                [@pklint.cold]);
              b
      in
      store_pk c node i key len d
    end;
    s

  (* Encode entry [i]'s field for [key] against the virtual zero key:
     the difference is the key's first nonzero unit (the lookup path's
     initial state). *)
  let[@pklint.guarded] [@pklint.hot] encode_pk_initial c node i (key : Key.t) ~len =
    store_pk c node i key len
      (match granularity c with
      | Partial_key.Byte -> first_nonzero key len 0
      | Partial_key.Bit -> first_set_bit key len 0)

  (* Bulk load: entry [i] of [node] takes [key], which follows [prev]
     in the sorted input.  Check the pair's order — under a partial
     scheme with the comparison that encodes the field against
     [prev]. *)
  let[@pklint.guarded] [@pklint.hot] load_after c node i (key : Key.t) ~(prev : Key.t) =
    match c.scheme with
    | Layout.Partial _ ->
        if encode_pk c node i key ~len:(Bytes.length key) ~base:prev
             ~base_len:(Bytes.length prev)
           <= 0
        then (not_ascending c.name [@pklint.cold])
    | Layout.Direct _ | Layout.Indirect -> check_ascending c.name prev key

  (* A window of [n] bytes doubled until it holds [len]. *)
  let rec grown n len = if n >= len then Bytes.create n else grown (2 * n) len

  (* Re-encode entry [i]'s partial key against its base: the record of
     its predecessor entry, or for entry 0 the record [base] ([null] =
     the virtual zero key).  Bases travel as record pointers.  Each
     record key is copied with one read into its window, then encoded
     as a bulk load encodes in-hand keys.  The caller has checked the
     scheme is partial. *)
  (* Only called from tree split/merge/insert bodies below an
     established guard — audited escape. *)
  let[@pklint.guarded] [@pklint.hot] fix_pk c node i ~n ~base =
    if i >= 0 && i < n then begin
      let rid = rec_ptr c node i in
      let base = if i = 0 then base else rec_ptr c node (i - 1) in
      let len = Record_store.key_len c.records rid in
      let w = Bytes.length c.key_win in
      if len > w then (c.key_win <- grown (2 * w) len [@pklint.cold]);
      Record_store.read_key_into c.records rid ~len c.key_win;
      if base = null then encode_pk_initial c node i c.key_win ~len
      else begin
        let base_len = Record_store.key_len c.records base in
        let w = Bytes.length c.base_win in
        if base_len > w then (c.base_win <- grown (2 * w) base_len [@pklint.cold]);
        Record_store.read_key_into c.records base ~len:base_len c.base_win;
        if encode_pk c node i c.key_win ~len ~base:c.base_win ~base_len = 0 then
          (invalid_arg (c.name ^ ": an entry's key equals its base's") [@pklint.cold])
      end
    end

  (* Full comparison of the search key against entry [i]'s record key:
     (c(search, key_i), d) in the scheme's granularity units, packed. *)
  let[@pklint.hot] deref_entry c node search i =
    Counters.deref c.cnt node i;
    let rid = rec_ptr c node i in
    Key.packed_flip
      (match granularity c with
      | Partial_key.Bit -> Record_store.compare_key_bits c.records rid search
      | Partial_key.Byte -> Record_store.compare_key c.records rid search)

  (* Sign of c(probe, entry i), comparing the key in place: the inline
     key (direct) or the record key, which counts as a dereference.
     Allocation-free. *)
  let[@pklint.hot] probe_sign c node probe i =
    match c.scheme with
    | Layout.Direct { key_len } ->
        -Mem.compare_sign c.reg
           ~off:(entry_addr c node i + 8)
           ~len:key_len probe ~key_off:0 ~key_len:(Bytes.length probe)
    | Layout.Indirect | Layout.Partial _ ->
        Counters.deref c.cnt node i;
        -Record_store.compare_sign c.records (rec_ptr c node i) probe

  (* The in-node search of every path but partial-key lookups (which
     run FINDNODE): binary search of [probe] among entries [lo, hi).
     Returns the insertion point, or [lnot i] (negative) for a match at
     entry [i]. *)
  let[@pklint.hot] rec search c node probe lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      let s = probe_sign c node probe mid in
      if s = 0 then lnot mid
      else if s < 0 then search c node probe lo mid
      else search c node probe (mid + 1) hi

  (* The record of a [search] match, or -1 for an insertion point. *)
  let[@pklint.hot] found_rid c node r = if r < 0 then rec_ptr c node (lnot r) else -1

  (* FINDNODE entry_ops aimed through the scratch's (node, probe)
     cursor: one ops record per tree, re-aimed at each (node, probe)
     instead of rebuilt. *)
  let make_ops c (sc : Scratch.t) ~shift =
    let g = granularity c in
    Node_search.make
      ~pk_off:(fun i -> Layout.read_pk_off c.reg (entry_addr c sc.node (i + shift)))
      ~resolve_units:(fun i ~rel ~off ->
        Layout.resolve_pk_units c.reg
          (entry_addr c sc.node (i + shift))
          ~scheme_granularity:g ~units:c.units ~search:sc.probe ~rel ~off)
      ~branch_unit:(fun i ->
        match g with
        | Partial_key.Bit -> 1
        | Partial_key.Byte -> Layout.read_pk_first_byte c.reg (entry_addr c sc.node (i + shift)))
      ~search_unit:(fun u ->
        match g with
        | Partial_key.Bit -> bit_or_zero sc.probe u
        | Partial_key.Byte -> byte_or_zero sc.probe u)
      ~deref:(fun i -> deref_entry c sc.node sc.probe (i + shift))

  (* Partial-key comparison of [search] against entry 0 — FINDTTREE's
     per-level step, packed.  Offset-only resolution first (the common
     case touches just the pk_off field), units next, one dereference
     on partial-key equality. *)
  let[@pklint.hot] head_pk_cmp c node search ~rel ~off =
    let a0 = entry_addr c node 0 in
    let p = Pk_compare.resolve_by_offset ~rel ~off ~pk_off:(Layout.read_pk_off c.reg a0) in
    let p =
      if p <> Pk_compare.need_units then p
      else
        Layout.resolve_pk_units c.reg a0 ~scheme_granularity:(granularity c) ~units:c.units
          ~search ~rel ~off
    in
    match Key.packed_cmp p with
    | Key.Eq ->
        Obs.Trace.emit c.cnt.Counters.trace Obs.Trace.k_pk_eq node 0;
        deref_entry c node search 0
    | Key.Lt ->
        Obs.Trace.emit c.cnt.Counters.trace Obs.Trace.k_pk_lt node (Key.packed_off p);
        p
    | Key.Gt ->
        Obs.Trace.emit c.cnt.Counters.trace Obs.Trace.k_pk_gt node (Key.packed_off p);
        p
end

(* {2 Group descent over child-partitioned trees}

   The sorted probe batch is descended level by level: at each node the
   probes are resolved in order and contiguous runs that fall into the
   same child are recursed as one segment, so the node's cache lines
   are touched once per batch instead of once per probe.  A node visit
   is counted once per (node, segment) — the sharing the batch buys.

   Works for any tree whose per-node routing maps a probe to a child
   index monotone non-decreasing in key order (B-tree, prefix
   B+-tree). *)

module Group = struct
  type router = {
    sc : Scratch.t;
    cnt : Counters.t;  (* node visits are counted here *)
    is_leaf : int -> bool;
    num_keys : int -> int;
    route : int -> int -> int -> int;
        (* [route node n slot]: the child node the probe descends
           into, or -1 when it resolved at this node (the hook wrote
           [sc.out]). *)
    leaf_probe : int -> int -> int -> unit;
        (* [leaf_probe node n slot]: resolve the probe at a leaf,
           writing [sc.out]. *)
  }

  (* [run_from]/[run_child]: pending run of sorted probes that fall
     into the same child node ([run_child = -1] = no pending run). *)
  let[@pklint.hot] rec drive r node lo hi =
    Counters.visit r.cnt node;
    let n = r.num_keys node in
    if r.is_leaf node then
      for p = lo to hi - 1 do
        r.leaf_probe node n r.sc.Scratch.perm.(p)
      done
    else scan r node n hi lo lo (-1)

  and scan r node n hi p run_from run_child =
    if p >= hi then flush r p run_from run_child
    else begin
      let c = r.route node n r.sc.Scratch.perm.(p) in
      if c < 0 then begin
        flush r p run_from run_child;
        scan r node n hi (p + 1) (p + 1) (-1)
      end
      else if c = run_child then scan r node n hi (p + 1) run_from run_child
      else begin
        flush r p run_from run_child;
        scan r node n hi (p + 1) p c
      end
    end
  [@@pklint.hot]

  and flush r upto run_from run_child =
    if run_child >= 0 && upto > run_from then drive r run_child run_from upto
  [@@pklint.hot]

  (* One-probe descent over the same hooks: no permutation, no runs. *)
  let[@pklint.hot] rec drive1 r node slot =
    Counters.visit r.cnt node;
    let n = r.num_keys node in
    if r.is_leaf node then r.leaf_probe node n slot
    else
      let c = r.route node n slot in
      if c >= 0 then drive1 r c slot
end

(* {2 Group descent over binary (T-tree) structures}

   FINDTTREE descends comparing only each node's leftmost entry, so a
   sorted probe batch splits at every node into three contiguous
   segments — below, equal to, and above entry 0 — and the two outer
   segments descend left and right as groups.  [classify] returns the
   per-probe sign, which the batch driver parks in [sc.sign] for the
   segment scan; probes reaching a null child resolve via [final]
   against the last greater-than ancestor. *)

module Tgroup = struct
  type driver = {
    sc : Scratch.t;
    cnt : Counters.t;  (* node visits are counted here *)
    left : int -> int;
    right : int -> int;
    classify : int -> int -> int;  (* node -> slot -> sign, with state updates *)
    final : int -> int -> unit;  (* last-Gt ancestor (or null) -> slot *)
  }

  (* Segment boundaries over the sorted batch, reading the per-probe
     signs left by the node pass. *)
  let[@pklint.hot] rec bound_neg sc p hi =
    if p < hi && sc.Scratch.sign.(sc.Scratch.perm.(p)) < 0 then bound_neg sc (p + 1) hi else p

  let[@pklint.hot] rec bound_zero sc p hi =
    if p < hi && sc.Scratch.sign.(sc.Scratch.perm.(p)) = 0 then bound_zero sc (p + 1) hi else p

  (* Empty segments are skipped before their child pointer is read. *)
  let[@pklint.hot] rec drive d node la lo hi =
    if node = null then
      for p = lo to hi - 1 do
        d.final la d.sc.Scratch.perm.(p)
      done
    else begin
      Counters.visit d.cnt node;
      let sc = d.sc in
      for p = lo to hi - 1 do
        let slot = sc.Scratch.perm.(p) in
        sc.Scratch.sign.(slot) <- d.classify node slot
      done;
      let a = bound_neg sc lo hi in
      let b = bound_zero sc a hi in
      if lo < a then drive d (d.left node) la lo a;
      if b < hi then drive d (d.right node) node b hi
    end

  (* One-probe descent over the same hooks: the sign steers directly. *)
  let[@pklint.hot] rec drive1 d node la slot =
    if node = null then d.final la slot
    else begin
      Counters.visit d.cnt node;
      let c = d.classify node slot in
      if c < 0 then drive1 d (d.left node) la slot
      else if c > 0 then drive1 d (d.right node) node slot
    end
end

(* {2 Durability and snapshot metrics}

   Registered eagerly so the series exist (at zero) in every exporter
   dump, whether or not a snapshot was ever pinned or a recovery run. *)

let m_snapshot_pins = Obs.Counter.register Obs.Registry.default "pk_snapshot_pins_total"
let m_snapshot_live = Obs.Counter.register Obs.Registry.default "pk_snapshot_epochs_live"

let m_recovery_replays =
  Obs.Counter.register Obs.Registry.default "pk_recovery_replays_total"

let m_recovery_ops = Obs.Histogram.register Obs.Registry.default "pk_recovery_replayed_ops"

(* {2 The uniform access-path record} *)

type ops = {
  tag : string;
  insert : Key.t -> rid:int -> bool;
  lookup : Key.t -> int option;
  delete : Key.t -> bool;
  lookup_into : Key.t array -> int array -> unit;
  insert_batch : Key.t array -> rids:int array -> bool array;
  delete_batch : Key.t array -> bool array;
  of_sorted : ?gap:float -> fill:float -> (Key.t * int) array -> unit;
  compact : ?gap:float -> unit -> unit;
  layout : unit -> Layout.Placement.t option;
  iter : (key:Key.t -> rid:int -> unit) -> unit;
  range : lo:Key.t -> hi:Key.t -> (key:Key.t -> rid:int -> unit) -> unit;
  seq_from : Key.t -> (Key.t * int) Seq.t;
  count : unit -> int;
  height : unit -> int;
  node_count : unit -> int;
  space_bytes : unit -> int;
  deref_count : unit -> int;
  node_visits : unit -> int;
  reset_counters : unit -> unit;
  trace : Obs.Trace.t;
  validate : unit -> unit;
  version : unit -> int;
  validated : int -> bool;
  guard : 'a. (unit -> 'a) -> 'a;
  snapshot : unit -> ops;
  release : unit -> unit;
}

(* {2 Write-ahead journaling}

   [journaled j ~payload_of o] interposes the operation journal on
   every mutator of [o]: the logical records (and the batch's commit
   marker, after the mutation succeeded) are appended {e before} /
   {e after} the in-memory work, so a crash — modelled as an exception
   escaping the mutator — leaves an uncommitted suffix that replay
   discards, exactly matching the state the arena undo journal restored
   in memory.  Read paths, statistics and snapshots pass through
   untouched. *)

let journaled j ~payload_of o =
  let module J = Pk_journal.Journal in
  let log_insert batch key rid = J.log_insert j ~batch ~key ~payload:(payload_of rid) in
  {
    o with
    insert =
      (fun key ~rid ->
        let batch = J.begin_batch j in
        log_insert batch key rid;
        let ok = o.insert key ~rid in
        J.commit j ~batch;
        ok);
    delete =
      (fun key ->
        let batch = J.begin_batch j in
        J.log_delete j ~batch ~key;
        let ok = o.delete key in
        J.commit j ~batch;
        ok);
    insert_batch =
      (fun keys ~rids ->
        check_rids keys ~rids;
        let batch = J.begin_batch j in
        Array.iteri (fun i key -> log_insert batch key rids.(i)) keys;
        let res = o.insert_batch keys ~rids in
        J.commit j ~batch;
        res);
    delete_batch =
      (fun keys ->
        let batch = J.begin_batch j in
        Array.iter (fun key -> J.log_delete j ~batch ~key) keys;
        let res = o.delete_batch keys in
        J.commit j ~batch;
        res);
    of_sorted =
      (fun ?gap ~fill entries ->
        let batch = J.begin_batch j in
        Array.iter (fun (key, rid) -> log_insert batch key rid) entries;
        o.of_sorted ?gap ~fill entries;
        J.commit j ~batch);
    (* [compact] passes through unlogged: it is content-preserving, so
       the journal's committed prefix already reproduces the compacted
       tree's keys — a crash mid-compact must be invisible to replay. *)
  }

(* {2 Read-only views}

   [read_only_view ~pinned ~on_release o] keeps [o]'s read paths and
   statistics; every mutator raises.  [pinned] is the live index's
   version word at pin time, so [validated v] answers "were these reads
   taken at version [v]?" — trivially so for the pin version, never
   otherwise.  [release] runs [on_release] exactly once. *)

let read_only_view ~pinned ~on_release o =
  let tag = o.tag in
  let released = ref false in
  let read_only name = invalid_arg (tag ^ "." ^ name ^ ": snapshot views are read-only") in
  {
    o with
    insert = (fun _ ~rid:_ -> read_only "insert");
    delete = (fun _ -> read_only "delete");
    insert_batch = (fun _ ~rids:_ -> read_only "insert_batch");
    delete_batch = (fun _ -> read_only "delete_batch");
    of_sorted = (fun ?gap:_ ~fill:_ _ -> read_only "of_sorted");
    compact = (fun ?gap:_ () -> read_only "compact");
    version = (fun () -> pinned);
    validated = (fun v -> v = pinned);
    guard = (fun f -> f ());
    layout = (fun () -> None);
    snapshot = (fun () -> invalid_arg (tag ^ ".snapshot: cannot snapshot a snapshot view"));
    release =
      (fun () ->
        if !released then invalid_arg (tag ^ ".release: snapshot already released");
        released := true;
        on_release ());
  }

(* {2 Recovery}

   Rebuild an index from a journal's committed prefix.  All committed
   batches but the last are folded into a sorted logical state — insert
   of a present key is a no-op, delete of an absent key is a no-op,
   matching live index semantics — and loaded in one [of_sorted] pass;
   the final batch is replayed incrementally through the normal
   single-key path, exercising both restore modes every time.  The fold
   sorts the prefix's ops with {!Keysort} (byte-equal keys keep journal
   order) and walks each key's group once.  Record ids are re-assigned
   by [store_insert], in key order: recovered rids are fresh, only the
   (key, payload) content is durable. *)

type recovery_stats = {
  rec_batches : int;  (** committed batches replayed *)
  rec_ops : int;  (** committed operation records replayed *)
  rec_bulk : int;  (** keys restored through the [of_sorted] prefix *)
  rec_tail : int;  (** tail operations replayed incrementally *)
  rec_skipped : int;  (** uncommitted operation records discarded *)
  rec_torn : int;  (** bytes of a torn final record dropped when the journal was read *)
}

let recover ?(gap = 0.1) ~build ~store_insert ~store_delete journal =
  let module J = Pk_journal.Journal in
  let fresh = build () in
  let n_batches, committed = J.committed_ops journal in
  let n_ops = List.length committed in
  let last = List.fold_left (fun acc (b, _) -> Stdlib.max acc b) 0 committed in
  let prefix, tail = List.partition (fun (b, _) -> b <> last) committed in
  let ops = Array.of_list prefix in
  let keys = Array.map (fun (_, (J.Insert { key; _ } | J.Delete { key })) -> key) ops in
  let pks = Array.map Keysort.pack keys in
  let n = Array.length ops in
  let perm = Array.init n Fun.id in
  Keysort.sort_perm pks keys perm n;
  let entries = Array.make n (Bytes.empty, 0) in
  let bulk = ref 0 and p = ref 0 in
  while !p < n do
    let first = perm.(!p) in
    let live = ref None in
    while !p < n && pks.(perm.(!p)) = pks.(first) && Key.equal keys.(perm.(!p)) keys.(first) do
      (match snd ops.(perm.(!p)) with
      | J.Insert { payload; _ } -> if Option.is_none !live then live := Some payload
      | J.Delete _ -> live := None);
      incr p
    done;
    Option.iter
      (fun payload ->
        let key = keys.(first) in
        entries.(!bulk) <- (key, store_insert ~key ~payload);
        incr bulk)
      !live
  done;
  let bulk = !bulk in
  if bulk > 0 then
    (* Gapped, not full: a recovered tree immediately takes new
       traffic, so its leaves keep the same insert slack a planned
       rebuild would leave. *)
    fresh.of_sorted ~gap ~fill:(Layout.gap_fill ~gap) (Array.sub entries 0 bulk);
  List.iter
    (fun (_, op) ->
      match op with
      | J.Insert { key; payload } -> (
          match fresh.lookup key with
          | Some _ -> ()
          | None ->
              let rid = store_insert ~key ~payload in
              if not (fresh.insert key ~rid) then store_delete rid)
      | J.Delete { key } -> (
          match fresh.lookup key with
          | Some rid ->
              ignore (fresh.delete key : bool);
              store_delete rid
          | None -> ()))
    tail;
  fresh.validate ();
  Obs.Counter.incr m_recovery_replays;
  Obs.Histogram.observe m_recovery_ops n_ops;
  let stats =
    {
      rec_batches = n_batches;
      rec_ops = n_ops;
      rec_bulk = bulk;
      rec_tail = List.length tail;
      rec_skipped = J.record_count journal - n_ops;
      rec_torn = J.torn_bytes journal;
    }
  in
  (fresh, stats)

(* {2 The per-structure primitive set} *)

module type STRUCTURE = sig
  type t
  val name : string
  (** Error-message prefix, e.g. ["Btree"]. *)

  val region : t -> Mem.region
  val counters : t -> Counters.t
  val scratch : t -> Scratch.t
  val root : t -> int
  val header : t header
  (** The scalar header an unwind restores. *)

  (** Single-key mutations (the tree's own update logic). *)

  val insert : t -> Key.t -> rid:int -> bool
  val delete : t -> Key.t -> bool

  (** Group descent: grow/initialise the per-probe scratch state, then
      resolve the sorted batch (permutation, probes and result slots
      are already in the scratch record); or, for a one-probe batch,
      seed slot [0]'s state and descend it alone through the same
      hooks. *)

  val prepare_batch : t -> Key.t array -> int -> unit
  val descend : t -> int -> unit
  val descend_one : t -> int -> unit

  (** Bulk load: the node-placement policy and the shape pass feeding
      the planner, then the level-building body (run under the engine's
      unwind scope with [fill] clamped and the placement plan —
      {!Layout.Placement.flat} under a [Flat] policy, target offsets per
      (root-first level, index) otherwise), which also checks each key
      and the order in its one pass.  [load_shape] must predict exactly
      the levels [load_sorted] builds for the same [fill] and entries. *)

  val layout_policy : t -> Layout.policy
  val load_shape : t -> fill:float -> (Key.t * int) array -> Layout.shape
  val load_sorted : t -> fill:float -> plan:Layout.Placement.t -> (Key.t * int) array -> unit

  val clear : t -> unit
  (** Free every node and reset the scalar header to the empty-tree
      state (the compaction teardown).  All writes go through the
      region, so an enclosing engine guard undoes a partial clear. *)

  (** Spine-stack cursor: frames are (node, next entry index).
      [cursor_start] positions at the first key (None) or the first key
      >= the probe; [advance] consumes entry [i] of the top frame;
      [exhausted] replaces a drained top frame. *)

  val cursor_start : t -> Key.t option -> (int * int) list
  val frame_entries : t -> int -> int
  val frame_entry : t -> int -> int -> Key.t * int
  val advance : t -> int -> int -> (int * int) list -> (int * int) list
  val exhausted : t -> int -> (int * int) list -> (int * int) list

  (** Snapshots: [records] exposes the record store the tree resolves
      rids through; [snapshot_view] clones the header record onto view
      regions (pinned root/height/counts, caches reset) — the clone
      runs the normal read paths against the pinned epoch. *)

  val records : t -> Record_store.t
  val snapshot_view : t -> reg:Mem.region -> records:Record_store.t -> t

  (** Statistics and validation. *)

  val count : t -> int
  val height : t -> int
  val node_count : t -> int
  val space_bytes : t -> int
  val validate : t -> unit
end

(* {2 The engine proper} *)

module Make (S : STRUCTURE) = struct
  let guarded t f = guarded ~reg:(S.region t) ~cnt:(S.counters t) S.header run_thunk t f ()

  let[@pklint.hot] lookup_into t keys out =
    let n = Array.length keys in
    if Array.length out < n then invalid_arg (S.name ^ ".lookup_into: result array too small") [@pklint.cold];
    if n > 0 then
      if S.root t = null then
        for i = 0 to n - 1 do
          out.(i) <- -1
        done
      else begin
        let sc = S.scratch t in
        (* Re-aim only on change: each store pays the write barrier. *)
        if sc.Scratch.keys != keys then sc.Scratch.keys <- keys;
        if sc.Scratch.out != out then sc.Scratch.out <- out;
        if n = 1 then S.descend_one t 0
        else begin
          S.prepare_batch t keys n;
          sort_probes sc.Scratch.perm sc.Scratch.pks keys n;
          S.descend t n
        end
      end

  (* A single-key lookup is a one-probe batch over the scratch's
     one-slot pair. *)
  let lookup t key =
    let sc = S.scratch t in
    sc.Scratch.one_key.(0) <- key;
    lookup_into t sc.Scratch.one_key sc.Scratch.one_out;
    let rid = sc.Scratch.one_out.(0) in
    if rid < 0 then None else Some rid

  (* Batched mutations: applied in sorted key order (ties keep batch
     order, so duplicate keys within a batch resolve exactly as they
     would applied singly in batch order) under one unwind scope — an
     injected fault anywhere in the batch unwinds the whole batch. *)

  let sorted_batch t keys n =
    let sc = S.scratch t in
    Scratch.grow_perm sc n;
    sort_probes sc.Scratch.perm sc.Scratch.pks keys n;
    sc.Scratch.perm

  let insert_batch t keys ~rids =
    check_rids keys ~rids;
    let n = Array.length keys in
    let res = Array.make n false in
    if n > 0 then begin
      let perm = sorted_batch t keys n in
      guarded t (fun () ->
          for p = 0 to n - 1 do
            let slot = perm.(p) in
            res.(slot) <- S.insert t keys.(slot) ~rid:rids.(slot)
          done)
    end;
    res

  let delete_batch t keys =
    let n = Array.length keys in
    let res = Array.make n false in
    if n > 0 then begin
      let perm = sorted_batch t keys n in
      guarded t (fun () ->
          for p = 0 to n - 1 do
            let slot = perm.(p) in
            res.(slot) <- S.delete t keys.(slot)
          done)
    end;
    res

  (* Bulk load with node placement: under a [Blocked] policy, run the
     structure's shape pass, plan target offsets, reserve the extent in
     one aligned range and hand the rebased plan to [load_sorted] —
     all inside the unwind scope, so an injected fault, or a key
     [load_sorted] rejects mid-pass, rolls the reservation back with
     everything else.  Returns the plan so
     [wrap] can expose it ([ops.layout]) for inspection. *)
  let bulk_load_plan t ?gap ?(fill = 1.0) entries =
    (* A gap request overrides the fill factor: gapped loading {e is}
       loading at the equivalent lower fill. *)
    let fill = match gap with None -> fill | Some g -> Layout.gap_fill ~gap:g in
    if S.root t <> null then invalid_arg (S.name ^ ".bulk_load: index is not empty");
    (* [load_sorted] checks the keys and their order in its own pass. *)
    if Array.length entries = 0 then None
    else
      Some
        (guarded t (fun () ->
             let fill = if fill < 0.5 then 0.5 else if fill > 1.0 then 1.0 else fill in
             let plan =
               match S.layout_policy t with
               | Layout.Flat -> Layout.Placement.flat
               | policy ->
                   let rel = Layout.Placement.plan policy (S.load_shape t ~fill entries) in
                   (* Hugepage-aware reservation: a blocked policy's
                      huge-block size aligns the base and pads the
                      extent so the tree owns whole huge blocks. *)
                   let huge =
                     Option.map (fun (_, _, h) -> h) (Layout.Placement.block_sizes rel)
                   in
                   let base =
                     Mem.reserve (S.region t) ~align:(Layout.Placement.base_align rel) ?huge
                       (Layout.Placement.extent rel)
                   in
                   Layout.Placement.rebase rel ~base
             in
             S.load_sorted t ~fill ~plan entries;
             plan))

  let bulk_load t ?gap ?fill entries = ignore (bulk_load_plan t ?gap ?fill entries : _ option)

  (* Lazy in-order cursor over the structure's spine stack.  The
     sequence reads the live tree: behaviour under concurrent
     modification is unspecified. *)

  let rec cursor_next t stack () =
    match stack with
    | [] -> Seq.Nil
    | (node, i) :: rest ->
        if i >= S.frame_entries t node then cursor_next t (S.exhausted t node rest) ()
        else Seq.Cons (S.frame_entry t node i, cursor_next t (S.advance t node i rest))

  let seq_from t from = cursor_next t (S.cursor_start t (Some from))

  let iter t f =
    let rec go stack =
      match stack with
      | [] -> ()
      | (node, i) :: rest ->
          if i >= S.frame_entries t node then go (S.exhausted t node rest)
          else begin
            let key, rid = S.frame_entry t node i in
            f ~key ~rid;
            go (S.advance t node i rest)
          end
    in
    go (S.cursor_start t None)

  (* Inclusive range scan: walk from [lo], stop past [hi].  [lo > hi]
     is naturally empty. *)
  let range t ~lo ~hi f =
    let rec go seq =
      match seq () with
      | Seq.Nil -> ()
      | Seq.Cons ((key, rid), rest) ->
          if Key.compare key hi <= 0 then begin
            f ~key ~rid;
            go rest
          end
    in
    go (seq_from t lo)

  (* Replay a churned tree through the bulk-load pipeline in place:
     collect the live (key, rid) pairs (ascending, rids preserved),
     free every node, and rebuild gapped through the placement
     planner.  One unwind scope covers both the teardown and the
     rebuild — [Mem.guard] is reentrant, so [bulk_load_plan]'s nested
     guard joins it — and an injected fault mid-compact restores the
     pre-compact tree exactly. *)
  let compact t ?(gap = 0.1) () =
    let n = S.count t in
    if n = 0 then None
    else begin
      let entries = Array.make n (Bytes.empty, 0) in
      let i = ref 0 in
      iter t (fun ~key ~rid ->
          entries.(!i) <- (key, rid);
          incr i);
      guarded t (fun () ->
          Fault.point "engine.compact";
          S.clear t;
          Fault.point "engine.compact.mid";
          bulk_load_plan t ~gap entries)
    end

  let insert_op t key rid = S.insert t key ~rid
  let delete_op t key () = S.delete t key

  (* A snapshot is the ordinary wrap of a snapshot-view clone — the
     read paths (group descent included) aimed at the view regions —
     made read-only at the live index's pin-time version word. *)
  let rec snapshot t ~tag ~ver () =
    let reg = Mem.snapshot_view (S.region t) in
    let records = Record_store.snapshot_view (S.records t) in
    let vt = S.snapshot_view t ~reg ~records in
    Obs.Counter.incr m_snapshot_pins;
    Obs.Counter.add m_snapshot_live 1;
    read_only_view ~pinned:(Atomic.get ver)
      ~on_release:(fun () ->
        Mem.release_view reg;
        Record_store.release_view records;
        Obs.Counter.add m_snapshot_live (-1))
      (wrap vt ~tag:(tag ^ "@snap"))

  and wrap t ~tag =
    Counters.attach (S.counters t) ~tag;
    let last_plan = ref None in
    (* Seqlock-style publication word for cross-domain readers: odd
       while a mutator is in flight, bumped again on completion.  A
       mutator that unwinds still republishes an (advanced) even value,
       so readers racing an aborted mutation conservatively restart. *)
    let ver = Atomic.make 0 in
    let mutating op a b = mutating ver op t a b in
    {
      tag;
      insert = (fun key ~rid -> mutating insert_op key rid);
      lookup = lookup t;
      delete = (fun key -> mutating delete_op key ());
      lookup_into = lookup_into t;
      insert_batch = (fun keys ~rids -> mutating run_thunk (fun () -> insert_batch t keys ~rids) ());
      delete_batch = (fun keys -> mutating run_thunk (fun () -> delete_batch t keys) ());
      of_sorted =
        (fun ?gap ~fill entries ->
          mutating run_thunk (fun () -> last_plan := bulk_load_plan t ?gap ~fill entries) ());
      compact =
        (fun ?gap () ->
          mutating run_thunk
            (fun () ->
              match compact t ?gap () with
              | None -> ()
              | Some _ as plan -> last_plan := plan)
            ());
      iter = iter t;
      range = (fun ~lo ~hi f -> range t ~lo ~hi f);
      seq_from = seq_from t;
      count = (fun () -> S.count t);
      height = (fun () -> S.height t);
      node_count = (fun () -> S.node_count t);
      space_bytes = (fun () -> S.space_bytes t);
      deref_count = (fun () -> (S.counters t).Counters.derefs);
      node_visits = (fun () -> (S.counters t).Counters.visits);
      reset_counters = (fun () -> Counters.reset (S.counters t));
      trace = (S.counters t).Counters.trace;
      validate = (fun () -> S.validate t);
      version = (fun () -> Atomic.get ver);
      validated = (fun v -> v land 1 = 0 && Atomic.get ver = v);
      guard = (fun f -> guarded t f);
      layout = (fun () -> !last_plan);
      snapshot = snapshot t ~tag ~ver;
      release = (fun () -> invalid_arg (tag ^ ".release: not a snapshot view"));
    }
end
