module Mem = Pk_mem.Mem
module Key = Pk_keys.Key
module Partial_key = Pk_partialkey.Partial_key
module Pk_compare = Pk_partialkey.Pk_compare

type scheme =
  | Direct of { key_len : int }
  | Indirect
  | Partial of { granularity : Partial_key.granularity; l_bytes : int }

let scheme_tag = function
  | Direct { key_len } -> Printf.sprintf "direct%d" key_len
  | Indirect -> "indirect"
  | Partial { granularity; l_bytes } ->
      Printf.sprintf "pk-%s-l%d"
        (match granularity with Partial_key.Bit -> "bit" | Partial_key.Byte -> "byte")
        l_bytes

let entry_size = function
  | Direct { key_len } -> 8 + key_len
  | Indirect -> 8
  | Partial { l_bytes; _ } -> 8 + 4 + l_bytes

let rec_ptr reg a = Mem.read_u64 reg a
(* The three write primitives below are only reached from the
   trees' insert/delete/bulk-load bodies, each of which runs inside
   [Engine.guarded] — audited escape, see DESIGN.md Â§11. *)
let[@pklint.guarded] set_rec_ptr reg a v = Mem.write_u64 reg a v

let read_direct_key reg a ~key_len = Mem.read_bytes reg ~off:(a + 8) ~len:key_len

let[@pklint.guarded] write_direct_key reg a key =
  Mem.write_bytes reg ~off:(a + 8) ~src:key ~src_off:0 ~len:(Bytes.length key)

(* Partial entry field offsets (relative to the entry address). *)
let pk_off_at = 8
let pk_len_at = 10
let pk_bits_at = 12

(* Bytes occupied by [pk_len] stored units. *)
let stored_width g pk_len =
  match g with Partial_key.Bit -> (pk_len + 7) / 8 | Partial_key.Byte -> pk_len

let read_pk reg a ~granularity : Partial_key.t =
  let pk_off = Mem.read_u16 reg (a + pk_off_at) in
  let pk_len = Mem.read_u8 reg (a + pk_len_at) in
  let width = stored_width granularity pk_len in
  let pk_bits =
    if width = 0 then Bytes.empty else Mem.read_bytes reg ~off:(a + pk_bits_at) ~len:width
  in
  { pk_off; pk_len; pk_bits }

let read_pk_off reg a = Mem.read_u16 reg (a + pk_off_at)
let read_pk_len reg a = Mem.read_u8 reg (a + pk_len_at)

let read_pk_first_byte reg a =
  if read_pk_len reg a = 0 then -1 else Mem.read_u8 reg (a + pk_bits_at)

(* A partial key is stored from a caller-owned image of the whole
   field: [pk_off:u16, pk_len:u8, pad:u8] (filled in here), then the
   [l_bytes] stored units at [pk_image_units], zero past the live
   ones.  One spare byte lets a bit-granularity window straddle one
   more key byte before it is shifted into place. *)
let pk_image_units = pk_bits_at - pk_off_at
let pk_image_bytes ~l_bytes = pk_image_units + l_bytes + 1

(* One store of the whole field, skipped when it already holds the
   image. *)
let[@pklint.guarded] [@pklint.hot] write_pk_image reg a ~image ~pk_off ~pk_len ~l_bytes =
  if pk_off > 0xffff then invalid_arg "Layout.write_pk_image: pk_off exceeds u16 (key too long)";
  if pk_len > 0xff then invalid_arg "Layout.write_pk_image: pk_len exceeds u8";
  Bytes.set_uint16_le image 0 pk_off;
  Bytes.set_uint8 image 2 pk_len;
  Bytes.set_uint8 image 3 0;
  let len = pk_image_units + l_bytes in
  let p = Mem.compare_detail reg ~off:(a + pk_off_at) ~len image ~key_off:0 ~key_len:len in
  if Key.packed_sign p <> 0 then Mem.write_bytes reg ~off:(a + pk_off_at) ~src:image ~src_off:0 ~len

(* The stored units are copied into the caller's reusable [units]
   buffer with one [read_into] — one "mem.read" fault point and one
   charge of the whole window, exactly like the [read_bytes] it
   replaces — and compared there: no fresh bytes per comparison. *)
let[@pklint.hot] resolve_pk_units reg a ~scheme_granularity ~units ~search ~rel ~off =
  let pk_len = read_pk_len reg a in
  let width = stored_width scheme_granularity pk_len in
  if width > 0 then Mem.read_into reg ~off:(a + pk_bits_at) ~dst:units ~dst_off:0 ~len:width;
  Pk_compare.resolve_by_units scheme_granularity ~search ~rel ~off ~pk_len ~pk_bits:units

(* {1 Node-placement policies} — where bulk-built tree nodes land in
   the arena, FAST-style: cache-line blocks nested in page blocks
   nested in hugepage blocks, so descent locality is structural rather
   than an accident of bump-allocation order. *)

type policy =
  | Flat
  | Blocked of { line_bytes : int; page_bytes : int; huge_bytes : int }

let blocked_default = Blocked { line_bytes = 64; page_bytes = 8192; huge_bytes = 2 * 1024 * 1024 }
let policy_tag = function Flat -> "flat" | Blocked _ -> "blocked"

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate_policy = function
  | Flat -> ()
  | Blocked { line_bytes; page_bytes; huge_bytes } ->
      if not (is_pow2 line_bytes && is_pow2 page_bytes && is_pow2 huge_bytes) then
        invalid_arg "Layout: blocked policy sizes must be powers of two";
      if not (line_bytes <= page_bytes && page_bytes <= huge_bytes) then
        invalid_arg "Layout: blocked policy needs line <= page <= huge"

(* Gapped bulk loads (BS-tree style): [gap] is the per-leaf slack
   fraction left free for future in-place inserts.  The trees' load
   passes and the placement planner already parameterise on [fill], so
   a gap maps directly onto the fill factor they honour; clamping to
   [0, 0.5] keeps the result inside the fill range bulk loads accept. *)
let gap_fill ~gap =
  let gap = if gap < 0.0 then 0.0 else if gap > 0.5 then 0.5 else gap in
  1.0 -. gap

(* Tree shape as the planner sees it: per-level child ranges, root
   level first.  [shape_levels.(l).(i) = (lo, hi)] is node [i]'s
   contiguous (exclusive) child range into level [l + 1]; childless
   nodes carry an empty range.  Each non-bottom level's ranges must
   tile the next level exactly — that contiguity is what lets the
   planner treat a sibling run as one block. *)
type shape = { shape_node_bytes : int; shape_levels : (int * int) array array }

let pow2_at_least n =
  let v = ref 1 in
  while !v < n do
    v := !v lsl 1
  done;
  !v

let validate_shape { shape_node_bytes; shape_levels } =
  if shape_node_bytes <= 0 then invalid_arg "Layout: shape node_bytes <= 0";
  let h = Array.length shape_levels in
  if h = 0 || Array.length shape_levels.(0) <> 1 then
    invalid_arg "Layout: shape must have a single root";
  for l = 0 to h - 1 do
    let next = if l = h - 1 then 0 else Array.length shape_levels.(l + 1) in
    let pos = ref 0 in
    Array.iter
      (fun (lo, hi) ->
        if hi < lo then invalid_arg "Layout: shape child range inverted";
        if hi > lo then begin
          if lo <> !pos then invalid_arg "Layout: shape child ranges must tile the next level";
          pos := hi
        end)
      shape_levels.(l);
    if !pos <> next then invalid_arg "Layout: shape child ranges must cover the next level"
  done

module Placement = struct
  type blocked = {
    node_bytes : int;
    line_bytes : int;
    page_bytes : int;
    huge_bytes : int;
    offsets : int array array;  (* root level first; arena offsets after [rebase] *)
    extent : int;
    padding : int;
  }

  type t = P_flat | P_blocked of blocked

  let flat = P_flat
  let is_flat = function P_flat -> true | P_blocked _ -> false

  (* Plan node targets for [shape] under a blocked [policy], as offsets
     relative to a reservation of [extent] bytes:

     - levels are partitioned bottom-up into maximal contiguous bands
       such that a band-top node plus all its within-band descendants
       (its "family") fits in one page block;
     - families are laid out parent-first (BFS) in one contiguous run,
       aligned so a line-sized family never straddles a cache-line
       boundary and a larger one never straddles a page boundary;
     - families are emitted in depth-first subtree order, so a whole
       subtree occupies a contiguous (hugepage-sized, once rebased to
       an aligned base) span of the reservation.

     Bottom-up banding is what pairs a leaf run with its parent: a
     top-down greedy split can strand the leaf level alone right below
     a band boundary, which is exactly the hot page we want shared. *)
  let plan policy shape =
    match policy with
    | Flat -> P_flat
    | Blocked { line_bytes; page_bytes; huge_bytes } ->
        validate_policy policy;
        validate_shape shape;
        let nb = shape.shape_node_bytes in
        let levels = shape.shape_levels in
        let h = Array.length levels in
        (* Bands, top-first: band_lo.(b) .. band_hi.(b) inclusive. *)
        let bands = ref [] in
        let hi = ref (h - 1) in
        while !hi >= 0 do
          let lo = ref !hi in
          let fam = ref (Array.make (Array.length levels.(!hi)) 1) in
          let keep = ref true in
          while !keep && !lo > 0 do
            let up = !lo - 1 in
            let f = !fam in
            let pf =
              Array.map
                (fun (clo, chi) ->
                  let s = ref 1 in
                  for j = clo to chi - 1 do
                    s := !s + f.(j)
                  done;
                  !s)
                levels.(up)
            in
            let worst = Array.fold_left (fun a b -> if a < b then b else a) 1 pf in
            if worst * nb <= page_bytes then begin
              lo := up;
              fam := pf
            end
            else keep := false
          done;
          bands := (!lo, !hi) :: !bands;
          hi := !lo - 1
        done;
        let bands = Array.of_list !bands in
        let band_hi_of = Array.make h 0 in
        Array.iter
          (fun (blo, bhi) ->
            for l = blo to bhi do
              band_hi_of.(l) <- bhi
            done)
          bands;
        let offsets = Array.map (fun lvl -> Array.make (Array.length lvl) (-1)) levels in
        let cursor = ref 0 in
        let padding = ref 0 in
        let place_block size =
          (* Families pack contiguously: banding already keeps each
             family inside ~one page worth of consecutive bytes, and
             DFS order keeps subtrees inside consecutive hugepages.
             Padding every family to a page boundary would be tighter
             still for the TLB, but it puts every family head at the
             same few phases mod page_bytes — hot upper-level lines
             then pile into a sliver of the cache sets and conflict
             misses swamp the TLB win (page-coloring problem), even at
             10-way associativity.  Only sub-line blocks are kept from
             straddling a line; node sizes are line multiples in
             practice, so this costs nothing. *)
          if size <= line_bytes then begin
            let room = line_bytes - (!cursor land (line_bytes - 1)) in
            if room < size then begin
              padding := !padding + room;
              cursor := !cursor + room
            end
          end;
          let off = !cursor in
          cursor := !cursor + size;
          off
        in
        let rec place_family blo i =
          let bhi = band_hi_of.(blo) in
          let depth = bhi - blo + 1 in
          let ranges = Array.make depth (0, 0) in
          ranges.(0) <- (i, i + 1);
          for l = blo to bhi - 1 do
            let rlo, rhi = ranges.(l - blo) in
            ranges.(l - blo + 1) <-
              (if rlo >= rhi then (0, 0)
               else (fst levels.(l).(rlo), snd levels.(l).(rhi - 1)))
          done;
          let count = Array.fold_left (fun a (lo, hi) -> a + hi - lo) 0 ranges in
          let off = ref (place_block (count * nb)) in
          for l = blo to bhi do
            let rlo, rhi = ranges.(l - blo) in
            for j = rlo to rhi - 1 do
              offsets.(l).(j) <- !off;
              off := !off + nb
            done
          done;
          if bhi < h - 1 then begin
            let rlo, rhi = ranges.(depth - 1) in
            for j = rlo to rhi - 1 do
              let clo, chi = levels.(bhi).(j) in
              for c = clo to chi - 1 do
                place_family (bhi + 1) c
              done
            done
          end
        in
        place_family 0 0;
        P_blocked
          {
            node_bytes = nb;
            line_bytes;
            page_bytes;
            huge_bytes;
            offsets;
            extent = !cursor;
            padding = !padding;
          }

  let extent = function P_flat -> 0 | P_blocked b -> b.extent
  let padding = function P_flat -> 0 | P_blocked b -> b.padding

  (* Base alignment preserving the planner's no-straddle math once the
     relative plan is rebased: any power of two >= the extent keeps a
     small plan inside one block of every larger kind, and huge
     alignment is enough for big plans (line and page divide huge).
     Capping at [huge_bytes] keeps small test trees from burning
     multi-megabyte alignment holes. *)
  let base_align = function
    | P_flat -> 8
    | P_blocked b ->
        let a = pow2_at_least (min b.extent b.huge_bytes) in
        min b.huge_bytes (max b.line_bytes a)

  let rebase t ~base =
    match t with
    | P_flat -> P_flat
    | P_blocked b ->
        if base land (base_align t - 1) <> 0 then
          invalid_arg "Layout.Placement.rebase: misaligned base";
        P_blocked { b with offsets = Array.map (Array.map (fun o -> o + base)) b.offsets }

  (* [offset ~level ~index] is [None] under the flat plan (bump-alloc as
     before); under a blocked plan an out-of-range coordinate means the
     builder's shape pass and its build disagree — raise rather than
     fall back, so drift is loud. *)
  let offset t ~level ~index =
    match t with
    | P_flat -> None
    | P_blocked b ->
        if level < 0 || level >= Array.length b.offsets then
          invalid_arg "Layout.Placement.offset: level outside the planned shape";
        Some b.offsets.(level).(index)

  let level_count = function P_flat -> 0 | P_blocked b -> Array.length b.offsets
  let nodes_at t ~level = match t with P_flat -> 0 | P_blocked b -> Array.length b.offsets.(level)
  let node_bytes = function P_flat -> 0 | P_blocked b -> b.node_bytes

  let block_sizes = function
    | P_flat -> None
    | P_blocked b -> Some (b.line_bytes, b.page_bytes, b.huge_bytes)
end
