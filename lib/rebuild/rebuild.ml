(* Rebuild-at-scale pipeline (see rebuild.mli).

   Stage layout follows the compressed-key sort literature: entries are
   tagged once with a fixed-size big-endian key prefix packed into an
   OCaml int ("packed partial key"), sorted on that int with per-domain
   runs merged k-way, and only packed-prefix {e collisions} pay a full
   key dereference through the record heap — the same partial-key
   economics the trees use at lookup time, applied to reconstruction. *)

module Key = Pk_keys.Key
module Index = Pk_core.Index
module Layout = Pk_core.Layout
module Record_store = Pk_records.Record_store

(* {2 Packed partial keys} *)

let pk_bytes = 7

let pack_pk key =
  let len = Bytes.length key in
  let v = ref 0 in
  for i = 0 to pk_bytes - 1 do
    v := (!v lsl 8) lor (if i < len then Char.code (Bytes.unsafe_get key i) else 0)
  done;
  !v

(* {2 The parallel sort stage} *)

type stats = {
  sorted_keys : int;
  runs : int;
  tie_derefs : int;
}

(* Total order over entry slots: packed prefix first; a full-key
   dereference through the record heap only on prefix collision
   ([tie_break = false] is the mutation-test hook that skips it); slot
   index last, so the order is total and input order decides between
   byte-equal keys.  Zero-padding the packed prefix is order-safe: a
   padded byte is the minimum byte, so any ambiguity it introduces
   (key ["x"] vs ["x\000"]) lands in the collision case and the
   dereference resolves it. *)
let slot_cmp ~tie_break store (pks : int array) (keys : Key.t array) (rids : int array) ties a b =
  let c = Int.compare pks.(a) pks.(b) in
  if c <> 0 then c
  else
    let c =
      if tie_break && not (Bytes.equal keys.(a) keys.(b)) then begin
        incr ties;
        Record_store.compare_sign store rids.(a) keys.(b)
      end
      else 0
    in
    if c <> 0 then c else Int.compare a b

let sort ?(domains = 1) ?(spawn = true) ?(tie_break = true) ~store entries =
  let n = Array.length entries in
  if n = 0 then ([||], { sorted_keys = 0; runs = 0; tie_derefs = 0 })
  else begin
    let keys = Array.map fst entries in
    let rids = Array.map snd entries in
    let pks = Array.map pack_pk keys in
    let d = max 1 (min domains n) in
    let chunk w = (w * n / d, (w + 1) * n / d) in
    (* Per-domain runs: each worker owns its run array and tie counter,
       so nothing is mutated across domains — shared state is read-only
       (keys/rids/pks and the record heap). *)
    let sort_run w =
      let lo, hi = chunk w in
      let run = Array.init (hi - lo) (fun k -> lo + k) in
      let ties = ref 0 in
      Array.sort (slot_cmp ~tie_break store pks keys rids ties) run;
      (run, !ties)
    in
    let runs =
      if d = 1 then [| sort_run 0 |]
      else if not spawn then
        (* same run decomposition and merge, executed in the calling
           domain — deterministic-measurement / test mode *)
        Array.init d sort_run
      else
        let workers = Array.init d (fun w -> Domain.spawn (fun () -> sort_run w)) in
        Array.map Domain.join workers
    in
    let tie_derefs = ref (Array.fold_left (fun acc (_, t) -> acc + t) 0 runs) in
    (* K-way merge of the runs, then adjacent dedup keeping the first
       occurrence in input order (the slot tie above already places it
       first among byte-equal keys).  The merge is the pipeline's
       sequential stage, so it keeps each run's head packed key inline
       and picks the minimum with plain int compares — the full
       comparator (and its possible heap dereference) runs only on a
       packed-prefix tie, the same partial-key economics the trees use.
       [max_int] is a safe exhausted sentinel: packed keys fit 56
       bits. *)
    let pos = Array.make d 0 in
    let cmp = slot_cmp ~tie_break store pks keys rids tie_derefs in
    let head_slot = Array.make d (-1) in
    let head_pk = Array.make d max_int in
    let refill r =
      let run, _ = runs.(r) in
      if pos.(r) < Array.length run then begin
        let s = run.(pos.(r)) in
        head_slot.(r) <- s;
        head_pk.(r) <- pks.(s)
      end
      else begin
        head_slot.(r) <- -1;
        head_pk.(r) <- max_int
      end
    in
    for r = 0 to d - 1 do
      refill r
    done;
    let out = Array.make n (Bytes.empty, 0) in
    let filled = ref 0 in
    let last_slot = ref (-1) in
    for _ = 1 to n do
      let best = ref (-1) in
      for r = 0 to d - 1 do
        if head_slot.(r) >= 0 then
          if !best < 0 then best := r
          else
            let c = Int.compare head_pk.(r) head_pk.(!best) in
            if c < 0 || (c = 0 && cmp head_slot.(r) head_slot.(!best) < 0) then best := r
      done;
      let slot = head_slot.(!best) in
      pos.(!best) <- pos.(!best) + 1;
      refill !best;
      if !last_slot < 0 || not (Bytes.equal keys.(!last_slot) keys.(slot)) then begin
        out.(!filled) <- (keys.(slot), rids.(slot));
        incr filled;
        last_slot := slot
      end
    done;
    let out = if !filled = n then out else Array.sub out 0 !filled in
    (out, { sorted_keys = !filled; runs = d; tie_derefs = !tie_derefs })
  end

(* {2 Extraction sources} *)

type source =
  | Of_index of Index.t
  | Of_buffer of (Key.t * int) array

let extract = function
  | Of_buffer entries -> Array.copy entries
  | Of_index ix ->
      let n = ix.Index.count () in
      let out = Array.make n (Bytes.empty, 0) in
      let i = ref 0 in
      ix.Index.iter (fun ~key ~rid ->
          out.(!i) <- (key, rid);
          incr i);
      out

(* {2 The full pipeline} *)

let rebuild ?domains ?(gap = 0.1) ~store ~into source =
  let entries = extract source in
  let sorted, stats = sort ?domains ~store entries in
  if Array.length sorted > 0 then
    into.Index.of_sorted ~gap ~fill:(Layout.gap_fill ~gap) sorted;
  stats
