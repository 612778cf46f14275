module Key = Pk_keys.Key

type entry_ops = {
  mutable num_keys : int;
  pk_off : int -> int;
  resolve_units : int -> rel:Pk_keys.Key.cmp -> off:int -> int;
  branch_unit : int -> int;
  search_unit : int -> int;
  deref : int -> int;
  mutable low : int;
  mutable high : int;
  mutable off_low : int;
  mutable derefs : int;
}

let make ~pk_off ~resolve_units ~branch_unit ~search_unit ~deref =
  {
    num_keys = 0;
    pk_off;
    resolve_units;
    branch_unit;
    search_unit;
    deref;
    low = -1;
    high = 0;
    off_low = 0;
    derefs = 0;
  }

(* Every search ends here: the final state lands in the ops record's
   int fields, so no result is allocated. *)
let[@pklint.hot] finish ops ~low ~high ~off_low ~derefs =
  ops.low <- low;
  ops.high <- high;
  ops.off_low <- off_low;
  ops.derefs <- derefs

let[@pklint.hot] compare_entry ops i ~rel ~off =
  let p = Pk_compare.resolve_by_offset ~rel ~off ~pk_off:(ops.pk_off i) in
  if p <> Pk_compare.need_units then p else ops.resolve_units i ~rel ~off

(* Resolve the search position rightward from entry [start], given the
   definite state [(Gt, off)] w.r.t. entry [start - 1], inside
   [\[start, high)].  Uses offset-only reasoning; when offsets tie it
   consults stored units and, as a last resort, dereferences.  Always
   terminates with a definite answer. *)
let[@pklint.hot] rec resolve_right ops ~start ~high ~off ~derefs =
  if start >= high then finish ops ~low:(high - 1) ~high ~off_low:off ~derefs
  else
    let p = compare_entry ops start ~rel:Key.Gt ~off in
    match Key.packed_cmp p with
    | Key.Lt -> finish ops ~low:(start - 1) ~high:start ~off_low:off ~derefs
    | Key.Gt -> resolve_right ops ~start:(start + 1) ~high ~off:(Key.packed_off p) ~derefs
    | Key.Eq -> (
        let q = ops.deref start in
        let derefs = derefs + 1 in
        match Key.packed_cmp q with
        | Key.Eq -> finish ops ~low:start ~high:start ~off_low:(Key.packed_off q) ~derefs
        | Key.Lt -> finish ops ~low:(start - 1) ~high:start ~off_low:off ~derefs
        | Key.Gt -> resolve_right ops ~start:(start + 1) ~high ~off:(Key.packed_off q) ~derefs)

(* Resolve leftward from entry [j] down to [lo_bound], given the
   definite state: search < entry [j + 1] with
   [delta = d(search, key_{j+1})].  [off_fallback] is
   [d(search, key_{lo_bound})] from the caller, returned when the scan
   exits the zone at the bottom. *)
let[@pklint.hot] rec resolve_left ops ~j ~lo_bound ~delta ~off_fallback ~derefs =
  if j <= lo_bound then
    finish ops ~low:lo_bound ~high:(lo_bound + 1) ~off_low:off_fallback ~derefs
  else
    (* Entry [j+1]'s pk_off is d(key_{j+1}, key_j); Theorem 3.1 with
       base key_{j+1}: both search and key_j are below it. *)
    let d_next = ops.pk_off (j + 1) in
    if delta > d_next then
      (* search diverges from key_{j+1} later than key_j does: search
         is above key_j. *)
      finish ops ~low:j ~high:(j + 1) ~off_low:d_next ~derefs
    else if delta < d_next then
      resolve_left ops ~j:(j - 1) ~lo_bound ~delta ~off_fallback ~derefs
    else
      let q = ops.deref j in
      let derefs = derefs + 1 in
      match Key.packed_cmp q with
      | Key.Eq -> finish ops ~low:j ~high:j ~off_low:(Key.packed_off q) ~derefs
      | Key.Gt -> finish ops ~low:j ~high:(j + 1) ~off_low:(Key.packed_off q) ~derefs
      | Key.Lt ->
          resolve_left ops ~j:(j - 1) ~lo_bound ~delta:(Key.packed_off q) ~off_fallback ~derefs

(* First entry at or after [i] outside the subtrie rooted at an entry
   with difference offset [d] (all following entries with larger
   difference offsets belong to it). *)
let[@pklint.hot] rec skip_subtrie ops ~hi ~d i =
  if i < hi && ops.pk_off i > d then skip_subtrie ops ~hi ~d (i + 1) else i

(* The FINDBITTREE walk over entries [i, hi): the candidate [pos] moves
   to every entry whose upper branch the search key follows. *)
let[@pklint.hot] rec bit_tree_walk ops ~hi ~pos i =
  if i >= hi then pos
  else
    let d_i = ops.pk_off i in
    let bu = ops.branch_unit i in
    (* [bu < 0]: byte granularity with l = 0, no branch information;
       keep the candidate moving so the dereference lands inside the
       zone.  Otherwise the search key's unit picks the branch; the
       lower one skips entry [i]'s subtrie. *)
    if bu < 0 || ops.search_unit d_i >= bu then bit_tree_walk ops ~hi ~pos:i (i + 1)
    else bit_tree_walk ops ~hi ~pos (skip_subtrie ops ~hi ~d:d_i (i + 1))

(* FINDBITTREE over the ambiguous zone (lo, hi): entries lo+1..hi-1
   compared unresolved; search > key_lo (with d = off_lo) and
   search < key_hi are known.  Walk the implicit difference-bit trie
   touching no record keys, then dereference the candidate and settle
   the exact position from its result. *)
let[@pklint.hot] find_bit_tree ops ~lo ~hi ~off_lo ~derefs =
  let pos = bit_tree_walk ops ~hi ~pos:lo (lo + 1) in
  let target = if pos = lo then lo + 1 else pos in
  let p = ops.deref target in
  let derefs = derefs + 1 in
  match Key.packed_cmp p with
  | Key.Eq -> finish ops ~low:target ~high:target ~off_low:(Key.packed_off p) ~derefs
  | Key.Gt -> resolve_right ops ~start:(target + 1) ~high:hi ~off:(Key.packed_off p) ~derefs
  | Key.Lt ->
      resolve_left ops ~j:(target - 1) ~lo_bound:lo ~delta:(Key.packed_off p)
        ~off_fallback:off_lo ~derefs

(* FINDNODE's sweep from entry [cur]: [(rel, off)] is the search key's
   state against entry [cur]'s base, entry [low] the last definite
   lower bound. *)
let[@pklint.hot] rec sweep ops cur ~low ~off_low ~rel ~off =
  let n = ops.num_keys in
  if cur >= n then
    if n - 1 > low then
      (* Unresolved tail zone (low, n): the virtual upper bound
         behaves as key_n = +infinity. *)
      find_bit_tree ops ~lo:low ~hi:n ~off_lo:off_low ~derefs:0
    else finish ops ~low ~high:n ~off_low ~derefs:0
  else
    let p = compare_entry ops cur ~rel ~off in
    match Key.packed_cmp p with
    | Key.Lt ->
        if cur - low > 1 then find_bit_tree ops ~lo:low ~hi:cur ~off_lo:off_low ~derefs:0
        else finish ops ~low ~high:cur ~off_low ~derefs:0
    | Key.Gt ->
        let o = Key.packed_off p in
        sweep ops (cur + 1) ~low:cur ~off_low:o ~rel:Key.Gt ~off:o
    | Key.Eq -> sweep ops (cur + 1) ~low ~off_low ~rel:Key.Eq ~off:(Key.packed_off p)

let[@pklint.hot] find_node ops ~rel0 ~off0 =
  sweep ops 0 ~low:(-1) ~off_low:off0 ~rel:rel0 ~off:off0

let[@pklint.hot] rec naive_sweep ops cur ~low ~off_low ~rel ~off ~derefs =
  let n = ops.num_keys in
  if cur >= n then finish ops ~low ~high:n ~off_low ~derefs
  else
    let p = compare_entry ops cur ~rel ~off in
    match Key.packed_cmp p with
    | Key.Lt -> finish ops ~low ~high:cur ~off_low ~derefs
    | Key.Gt ->
        let o = Key.packed_off p in
        naive_sweep ops (cur + 1) ~low:cur ~off_low:o ~rel:Key.Gt ~off:o ~derefs
    | Key.Eq -> (
        (* Simple linear search: dereference immediately. *)
        let q = ops.deref cur in
        let derefs = derefs + 1 in
        match Key.packed_cmp q with
        | Key.Eq -> finish ops ~low:cur ~high:cur ~off_low:(Key.packed_off q) ~derefs
        | Key.Lt -> finish ops ~low ~high:cur ~off_low ~derefs
        | Key.Gt ->
            let o = Key.packed_off q in
            naive_sweep ops (cur + 1) ~low:cur ~off_low:o ~rel:Key.Gt ~off:o ~derefs)

let[@pklint.hot] naive_find_node ops ~rel0 ~off0 =
  naive_sweep ops 0 ~low:(-1) ~off_low:off0 ~rel:rel0 ~off:off0 ~derefs:0
