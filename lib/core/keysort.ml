(* The one key sort (see keysort.mli).

   Keys are tagged once with a fixed-size big-endian prefix packed into
   an OCaml int and sorted on that int; only packed-prefix collisions
   pay a full-key comparison — the partial-key economics the trees use
   at lookup time, applied to ordering. *)

module Key = Pk_keys.Key

(* {2 Packed prefixes} *)

let pk_bytes = 7

let[@pklint.hot] rec pack_from key len i acc =
  if i = pk_bytes then acc
  else
    let b = if i < len then Char.code (Bytes.unsafe_get key i) else 0 in
    pack_from key len (i + 1) ((acc lsl 8) lor b)

let[@pklint.hot] pack key = pack_from key (Bytes.length key) 0 0

(* {2 The permutation sort}

   Total order over slots: packed prefix first, the full key only on a
   packed tie, slot index last.  Zero-padding is order-safe: a padded
   byte is the minimum byte, so the ambiguity it introduces (["x"] vs
   ["x\000"]) lands in the tie case and the full key resolves it.

   Written as top-level recursive functions — no closures, no [ref]
   cells — so sorting a batch performs no heap allocation. *)

let[@inline] [@pklint.hot] compare_slots (pks : int array) (keys : Key.t array) a b =
  let c = Int.compare pks.(a) pks.(b) in
  if c <> 0 then c
  else
    let c = Key.compare keys.(a) keys.(b) in
    if c <> 0 then c else a - b

let[@inline] [@pklint.hot] swap (perm : int array) i j =
  let tmp = perm.(i) in
  perm.(i) <- perm.(j);
  perm.(j) <- tmp

let[@pklint.hot] rec shift_down pks keys perm lo j v =
  if j >= lo && compare_slots pks keys perm.(j) v > 0 then begin
    perm.(j + 1) <- perm.(j);
    shift_down pks keys perm lo (j - 1) v
  end
  else perm.(j + 1) <- v

let[@pklint.hot] rec insertion_sort pks keys perm lo hi i =
  if i < hi then begin
    shift_down pks keys perm lo (i - 1) perm.(i);
    insertion_sort pks keys perm lo hi (i + 1)
  end

let[@pklint.hot] rec scan_up pks keys perm pivot i =
  if compare_slots pks keys perm.(i) pivot < 0 then scan_up pks keys perm pivot (i + 1) else i

let[@pklint.hot] rec scan_down pks keys perm pivot j =
  if compare_slots pks keys perm.(j) pivot > 0 then scan_down pks keys perm pivot (j - 1) else j

(* Hoare partition over the pivot *slot*; terminates because slots are
   distinct, so sentinels (>= pivot up, <= pivot down) always exist. *)
let[@pklint.hot] rec partition pks keys perm pivot i j =
  let i = scan_up pks keys perm pivot i in
  let j = scan_down pks keys perm pivot j in
  if i >= j then j
  else begin
    swap perm i j;
    partition pks keys perm pivot (i + 1) (j - 1)
  end

(* Quicksort over [perm.[lo..hi)]: median-of-3 pivot, insertion sort at
   16 slots or fewer. *)
let[@pklint.hot] rec sort_range pks keys perm lo hi =
  if hi - lo <= 16 then insertion_sort pks keys perm lo hi (lo + 1)
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if compare_slots pks keys perm.(mid) perm.(lo) < 0 then swap perm mid lo;
    if compare_slots pks keys perm.(hi - 1) perm.(lo) < 0 then swap perm (hi - 1) lo;
    if compare_slots pks keys perm.(hi - 1) perm.(mid) < 0 then swap perm (hi - 1) mid;
    let j = partition pks keys perm perm.(mid) lo (hi - 1) in
    sort_range pks keys perm lo (j + 1);
    sort_range pks keys perm (j + 1) hi
  end

let[@pklint.hot] sort_perm pks keys perm n = sort_range pks keys perm 0 n

(* {2 Sorting (key, value) entries: runs, domains, k-way merge} *)

type stats = {
  sorted_keys : int;
  runs : int;
  pk_collisions : int;
}

let sort_entries ?(domains = 1) ?(spawn = true) entries =
  let n = Array.length entries in
  if n = 0 then ([||], { sorted_keys = 0; runs = 0; pk_collisions = 0 })
  else begin
    let keys = Array.map fst entries in
    let pks = Array.map pack keys in
    let d = max 1 (min domains n) in
    (* Run [w] owns its slot array; everything shared across domains
       (keys, pks) is read-only. *)
    let sort_run w =
      let lo = w * n / d in
      let run = Array.init (((w + 1) * n / d) - lo) (fun k -> lo + k) in
      sort_perm pks keys run (Array.length run);
      run
    in
    let runs =
      if d = 1 || not spawn then Array.init d sort_run
      else Array.map Domain.join (Array.init d (fun w -> Domain.spawn (fun () -> sort_run w)))
    in
    (* K-way merge of the run heads under the same slot order, then
       adjacent dedup: the slot tie places the first occurrence in input
       order first among byte-equal keys. *)
    let pos = Array.make d 0 in
    let out = Array.make n entries.(0) in
    let filled = ref 0 and collisions = ref 0 and last = ref (-1) in
    for _ = 1 to n do
      let best = ref (-1) in
      for r = 0 to d - 1 do
        if
          pos.(r) < Array.length runs.(r)
          && (!best < 0
             || compare_slots pks keys runs.(r).(pos.(r)) runs.(!best).(pos.(!best)) < 0)
        then best := r
      done;
      let slot = runs.(!best).(pos.(!best)) in
      pos.(!best) <- pos.(!best) + 1;
      let same_pk = !last >= 0 && pks.(!last) = pks.(slot) in
      if not (same_pk && Key.equal keys.(!last) keys.(slot)) then begin
        if same_pk then incr collisions;
        out.(!filled) <- entries.(slot);
        incr filled;
        last := slot
      end
    done;
    let out = if !filled = n then out else Array.sub out 0 !filled in
    (out, { sorted_keys = !filled; runs = d; pk_collisions = !collisions })
  end
