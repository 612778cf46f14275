module Fault = Pk_fault.Fault

(* Undo-log entry kinds: the third int of each (offset, length, kind)
   triple. *)
let k_bytes = 0 (* pre-image of [off, off+len), saved in [saved] *)
let k_alloc = 1 (* allocation: returned to the free list on abort *)
let k_free = 2 (* deferred free: applied on commit, dropped on abort *)

(* Copy-on-write shadow: pre-images of every 256-byte page overwritten
   since the shadow was attached.  A fixed two-level page table (row
   published before page, page before the arena overwrite) means a
   snapshot reader in another systhread always sees either "page absent,
   arena bytes still old" or "page present" — never torn state. *)
type shadow = {
  mutable rows : Bytes.t array array; (* [||] row = nothing captured there *)
  mutable cow_bytes : int;
  mutable live : bool;
}

type t = {
  arena_name : string;
  mutable data : Bytes.t;
  mutable used : int;
  mutable freed : int; (* bytes currently sitting in free lists *)
  free_lists : (int, int list ref) Hashtbl.t; (* size -> offsets *)
  free_set : (int, int) Hashtbl.t;
      (* offset -> size of a free block, or [-size] while its free is
         pending in the open transaction: double-free detection *)
  mutable frontier : int;
      (* [used] when the open transaction began, 0 when none is open.
         Bytes at or above it were zero at [begin_txn], so stores there
         are not logged. *)
  mutable log : int array; (* (offset, length, kind) triples, oldest first *)
  mutable log_len : int; (* ints of [log] in use *)
  mutable saved : Bytes.t; (* [k_bytes] pre-images, concatenated in log order *)
  mutable saved_len : int;
  mutable shadows : shadow list;
}

let null = 0

let create ?(initial_capacity = 64 * 1024) ~name () =
  let cap = Stdlib.max initial_capacity 64 in
  {
    arena_name = name;
    data = Bytes.make cap '\000';
    (* Offset 0 is burned (with 7 pad bytes) so that 0 can serve as the
       null pointer in node link fields. *)
    used = 8;
    freed = 0;
    free_lists = Hashtbl.create 16;
    free_set = Hashtbl.create 16;
    frontier = 0;
    log = [||];
    log_len = 0;
    saved = Bytes.empty;
    saved_len = 0;
    shadows = [];
  }

let name t = t.arena_name
let used_bytes t = t.used
let live_bytes t = t.used - t.freed
let capacity t = Bytes.length t.data

let grow_to t want =
  let cap = ref (Bytes.length t.data) in
  while !cap < want do
    cap := !cap * 2
  done;
  if !cap > Bytes.length t.data then begin
    let bigger = Bytes.make !cap '\000' in
    Bytes.blit t.data 0 bigger 0 t.used;
    t.data <- bigger
  end

let align_up off align = (off + align - 1) land lnot (align - 1)

(* {2 Shadow pages — copy-on-write snapshot support}

   Offsets are split [row:13][page:10][byte:8]: 256-byte pages, 1024
   pages per row, 8192 rows — 2 GiB of addressable arena, far above any
   configuration in this repository.  Pages are captured lazily, at
   most once per shadow, immediately before the first overwrite. *)

let page_bits = 8
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let l2_bits = 10
let l2_size = 1 lsl l2_bits
let l2_mask = l2_size - 1
let l1_size = 8192

let no_row : Bytes.t array = [||]

let shadow_attach t =
  let s = { rows = Array.make l1_size no_row; cow_bytes = 0; live = true } in
  t.shadows <- s :: t.shadows;
  s

let shadow_detach t s =
  s.live <- false;
  s.cow_bytes <- 0;
  (* Dropping the table makes any read through a released shadow fail
     fast (index out of bounds) instead of returning post-release
     bytes. *)
  s.rows <- [||];
  t.shadows <- List.filter (fun s' -> s' != s) t.shadows

let shadow_live s = s.live
let shadow_cow_bytes s = s.cow_bytes

let capture_page t s page =
  let r = page lsr l2_bits in
  if r >= l1_size then invalid_arg "Arena: offset too large for snapshot shadowing";
  let row =
    let row = s.rows.(r) in
    if Array.length row > 0 then row
    else begin
      let row = Array.make l2_size Bytes.empty in
      (* Publish the (empty) row before any page lands in it. *)
      s.rows.(r) <- row;
      row
    end
  in
  let j = page land l2_mask in
  if Bytes.length row.(j) = 0 then begin
    let pg = Bytes.make page_size '\000' in
    let base = page lsl page_bits in
    let n = Stdlib.min page_size (Bytes.length t.data - base) in
    if n > 0 then Bytes.blit t.data base pg 0 n;
    (* Page becomes visible before the caller overwrites the arena. *)
    row.(j) <- pg;
    s.cow_bytes <- s.cow_bytes + page_size
  end

let capture_range t off len =
  let first = off lsr page_bits and last = (off + len - 1) lsr page_bits in
  List.iter
    (fun s ->
      for p = first to last do
        capture_page t s p
      done)
    t.shadows

(* Called before every in-place mutation: one load and branch when no
   snapshot is pinned.  Capturing pages, only while one is, allocates
   them. *)
let[@inline] capture t off len =
  match t.shadows with
  | [] -> ()
  | _ :: _ -> if len > 0 then (capture_range t off len [@pklint.cold])

let[@inline] shadow_page s page =
  let row = Array.get s.rows (page lsr l2_bits) in
  if Array.length row = 0 then Bytes.empty else Array.unsafe_get row (page land l2_mask)

let shadow_get_u8 t s off =
  let pg = shadow_page s (off lsr page_bits) in
  if Bytes.length pg = 0 then Char.code (Bytes.get t.data off)
  else Char.code (Bytes.unsafe_get pg (off land page_mask))

(* Multi-byte shadow reads compose byte-wise: a value can straddle a
   captured and an uncaptured page.  Native-int wraparound in the u64
   composition matches [get_u64]'s [Int64.to_int] truncation. *)
let shadow_get_u16 t s off = shadow_get_u8 t s off lor (shadow_get_u8 t s (off + 1) lsl 8)

let shadow_get_u32 t s off =
  shadow_get_u16 t s off lor (shadow_get_u16 t s (off + 2) lsl 16)

let shadow_get_u64 t s off =
  shadow_get_u32 t s off lor (shadow_get_u32 t s (off + 4) lsl 32)

let shadow_blit_to_bytes t s ~src_off ~dst ~dst_off ~len =
  if len < 0 || dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Arena.shadow_blit_to_bytes";
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst (dst_off + i) (Char.unsafe_chr (shadow_get_u8 t s (src_off + i)))
  done

(* {2 Undo journal}

   One flat log, reused across transactions: an int array of
   (offset, length, kind) triples and a byte buffer holding the
   pre-images of the [k_bytes] entries.  Both grow by doubling; a
   transaction that grew them past [retained_log] gives the excess back
   when it ends, so one large transaction (a compaction logging a whole
   tree) does not pin its log for the life of the arena. *)

let retained_log = 1 lsl 16
let in_txn t = t.frontier > 0

let begin_txn t =
  if in_txn t then invalid_arg "Arena.begin_txn: transaction already open";
  t.frontier <- t.used

let grow_log t =
  let bigger = Array.make ((2 * Array.length t.log) + 48) 0 in
  Array.blit t.log 0 bigger 0 t.log_len;
  t.log <- bigger

let grow_saved t len =
  let bigger = Bytes.create ((2 * Bytes.length t.saved) + len + 256) in
  Bytes.blit t.saved 0 bigger 0 t.saved_len;
  t.saved <- bigger

let[@pklint.hot] push_entry t off len kind =
  if t.log_len + 3 > Array.length t.log then (grow_log t [@pklint.cold]);
  let i = t.log_len in
  Array.unsafe_set t.log i off;
  Array.unsafe_set t.log (i + 1) len;
  Array.unsafe_set t.log (i + 2) kind;
  t.log_len <- i + 3

let[@pklint.hot] save_bytes t off len =
  if t.saved_len + len > Bytes.length t.saved then (grow_saved t len [@pklint.cold]);
  Bytes.blit t.data off t.saved t.saved_len len;
  t.saved_len <- t.saved_len + len;
  push_entry t off len k_bytes

(* Log the current content of [off, off+len) so an abort can restore
   it.  Called before every in-place mutation; a store wholly at or
   above the frontier overwrites bytes that were zero at [begin_txn]
   and that only this transaction's allocations can reach, and abort
   re-zeroes them wholesale instead. *)
let[@inline] log_bytes t off len = if off < t.frontier then save_bytes t off len
let[@inline] log_alloc t off size = if in_txn t then push_entry t off size k_alloc

let push_free t off size =
  t.freed <- t.freed + size;
  Hashtbl.replace t.free_set off size;
  match Hashtbl.find_opt t.free_lists size with
  | Some cell -> cell := off :: !cell
  | None -> Hashtbl.add t.free_lists size (ref [ off ])

let end_txn t =
  t.frontier <- 0;
  t.log_len <- 0;
  t.saved_len <- 0;
  if Array.length t.log > retained_log then t.log <- [||];
  if Bytes.length t.saved > retained_log then t.saved <- Bytes.empty

let commit_txn t =
  if not (in_txn t) then invalid_arg "Arena.commit_txn: no open transaction";
  (* Deferred frees become real only now, oldest first: an aborted
     operation never dismembers nodes it had logically freed. *)
  let log = t.log in
  let i = ref 0 in
  while !i < t.log_len do
    if log.(!i + 2) = k_free then push_free t log.(!i) log.(!i + 1);
    i := !i + 3
  done;
  end_txn t

let abort_txn t =
  if not (in_txn t) then invalid_arg "Arena.abort_txn: no open transaction";
  (* Newest-first replay: byte restores land before the enclosing
     allocation is recycled, and a block allocated then freed in the
     transaction ends on the free list. *)
  let log = t.log in
  let pos = ref t.saved_len in
  let i = ref (t.log_len - 3) in
  while !i >= 0 do
    let off = log.(!i) and len = log.(!i + 1) and kind = log.(!i + 2) in
    if kind = k_bytes then begin
      pos := !pos - len;
      capture t off len;
      Bytes.blit t.saved !pos t.data off len
    end
    else if kind = k_alloc then push_free t off len
    else Hashtbl.remove t.free_set off;
    i := !i - 3
  done;
  (* Everything from the frontier up was zero when the transaction
     began. *)
  let fresh = t.used - t.frontier in
  capture t t.frontier fresh;
  Bytes.fill t.data t.frontier fresh '\000';
  end_txn t

(* {2 Allocation} *)

(* Fresh bytes at the bump frontier. *)
let bump t align size =
  let off = align_up t.used align in
  if off + size > Bytes.length t.data then Fault.point "arena.grow";
  grow_to t (off + size);
  t.used <- off + size;
  log_alloc t off size;
  off

let alloc t ?(align = 8) size =
  if size <= 0 then invalid_arg "Arena.alloc: size <= 0";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Arena.alloc: align must be a positive power of two";
  Fault.point "arena.alloc";
  (* [freed] sums the free lists' blocks: at 0 no list holds one, so
     bump without the lookup (and its [Some] box). *)
  if t.freed = 0 then bump t align size
  else
    match Hashtbl.find_opt t.free_lists size with
    | Some ({ contents = off :: rest } as cell) ->
        cell := rest;
        Hashtbl.remove t.free_set off;
        t.freed <- t.freed - size;
        log_alloc t off size;
        off
    | Some _ | None -> bump t align size

(* Reserve a contiguous placement range at the bump frontier.  Always
   fresh bytes — never a recycled free-list block, whose alignment is
   whatever its original allocation had.  One [k_alloc] log entry covers
   the whole extent, so a txn abort returns it in one piece.

   [?huge] makes the reservation hugepage-aware: the base is aligned to
   the huge-block size (regardless of how small the extent is) and the
   size is rounded up to a whole number of huge blocks, so no later
   allocation shares a huge block — and therefore a TLB entry — with
   the reserved extent. *)
let reserve t ?(align = 8) ?huge size =
  if size <= 0 then invalid_arg "Arena.reserve: size <= 0";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Arena.reserve: align must be a positive power of two";
  let align, size =
    match huge with
    | None -> (align, size)
    | Some h ->
        if h <= 0 || h land (h - 1) <> 0 then
          invalid_arg "Arena.reserve: huge must be a positive power of two";
        (Stdlib.max align h, align_up size h)
  in
  Fault.point "arena.alloc";
  bump t align size

(* Claim [off, off+size) at a planner-chosen position.  Two cases:
   inside a live reservation the bytes are already accounted for, so
   this only validates; at an exactly-matching freed block it reclaims
   the block (the free-list cousin of [alloc]'s recycling), so a
   placement plan may land on ground an earlier tree vacated. *)
let alloc_at t ~off size =
  if size <= 0 then invalid_arg "Arena.alloc_at: size <= 0";
  if off = null || off < 8 then invalid_arg "Arena.alloc_at: offset outside arena";
  if off + size > t.used then
    invalid_arg "Arena.alloc_at: region beyond the allocation frontier";
  Fault.point "arena.alloc";
  (match Hashtbl.find_opt t.free_set off with
  | Some fsz when fsz < 0 -> invalid_arg "Arena.alloc_at: offset freed in the open transaction"
  | Some fsz when fsz = size ->
      (match Hashtbl.find_opt t.free_lists size with
      | Some cell -> cell := List.filter (fun (o : int) -> o <> off) !cell
      | None -> ());
      Hashtbl.remove t.free_set off;
      t.freed <- t.freed - size;
      log_alloc t off size
  | Some fsz ->
      invalid_arg
        (Printf.sprintf "Arena.alloc_at: offset %d freed with size %d, requested %d" off fsz
           size)
  | None -> ());
  off

let fill t ~off ~len c =
  log_bytes t off len;
  capture t off len;
  Bytes.fill t.data off len c

let free t off size =
  if off = null then invalid_arg "Arena.free: null";
  if off < 8 || off + size > t.used then invalid_arg "Arena.free: region outside arena";
  if Hashtbl.mem t.free_set off then
    invalid_arg (Printf.sprintf "Arena.free: double free of offset %d" off);
  fill t ~off ~len:size '\000';
  if in_txn t then begin
    Hashtbl.replace t.free_set off (-size);
    push_entry t off size k_free
  end
  else push_free t off size

(* {2 Raw accessors} *)

let get_u8 t off = Char.code (Bytes.get t.data off)

let set_u8 t off v =
  log_bytes t off 1;
  capture t off 1;
  Bytes.set t.data off (Char.chr (v land 0xff))

let get_u16 t off = Bytes.get_uint16_le t.data off

let set_u16 t off v =
  log_bytes t off 2;
  capture t off 2;
  Bytes.set_uint16_le t.data off (v land 0xffff)

let get_u32 t off = Int32.to_int (Bytes.get_int32_le t.data off) land 0xffffffff

let set_u32 t off v =
  log_bytes t off 4;
  capture t off 4;
  Bytes.set_int32_le t.data off (Int32.of_int v)

let get_u64 t off = Int64.to_int (Bytes.get_int64_le t.data off)

let set_u64 t off v =
  log_bytes t off 8;
  capture t off 8;
  Bytes.set_int64_le t.data off (Int64.of_int v)

let blit_from_bytes t ~src ~src_off ~dst_off ~len =
  log_bytes t dst_off len;
  capture t dst_off len;
  Bytes.blit src src_off t.data dst_off len

let blit_to_bytes t ~src_off ~dst ~dst_off ~len =
  Bytes.blit t.data src_off dst dst_off len

let blit_within t ~src_off ~dst_off ~len =
  log_bytes t dst_off len;
  capture t dst_off len;
  Bytes.blit t.data src_off t.data dst_off len

(* Unaligned 64-bit loads for the word scans, bounds checked by their
   callers.  The scans only ask whether two words are equal, so byte
   order is irrelevant, and the [%equal] at [int64] compiles to an
   unboxed compare: the scan never touches the heap. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external word_eq : int64 -> int64 -> bool = "%equal"

let[@pklint.hot] rec words_scan a a_off b b_off last i =
  if i > last || not (word_eq (get64u a (a_off + i)) (get64u b (b_off + i))) then i
  else words_scan a a_off b b_off last (i + 8)

(* A range that is not wholly in bounds skips nothing: the caller's
   byte loop then reads, and fails, exactly where it always did. *)
let[@pklint.hot] equal_words t ~off b ~b_off ~len =
  let a = t.data in
  if off < 0 || b_off < 0 || off + len > Bytes.length a || b_off + len > Bytes.length b then 0
  else words_scan a off b b_off (len - 8) 0

let sub_bytes t ~off ~len = Bytes.sub t.data off len
