module Arena = Pk_arena.Arena
module Cachesim = Pk_cachesim.Cachesim
module Fault = Pk_fault.Fault

type t = {
  mutable sim : Cachesim.t option;
  mutable trace_on : bool;
  mutable next_base : int;
  mutable regions : region list;
}

and region = {
  owner : t;
  arena : Arena.t;
  region_base : int;
  view : Arena.shadow option;
      (* [Some s]: read-only snapshot view — reads go through the
         shadow, mutations are rejected. *)
}

(* 1 TiB per region: arenas can never grow into each other's address
   ranges in the simulated physical space. *)
let region_stride = 1 lsl 40

let create ?cache () = { sim = cache; trace_on = false; next_base = 0; regions = [] }

let cache t = t.sim
let set_cache t c = t.sim <- c
let tracing t = t.trace_on && Option.is_some t.sim
let set_tracing t b = t.trace_on <- b

let with_tracing t b f =
  let saved = t.trace_on in
  t.trace_on <- b;
  Fun.protect ~finally:(fun () -> t.trace_on <- saved) f

let new_region t ?initial_capacity ~name () =
  let arena = Arena.create ?initial_capacity ~name () in
  let r = { owner = t; arena; region_base = t.next_base; view = None } in
  t.next_base <- t.next_base + region_stride;
  t.regions <- r :: t.regions;
  r

(* {2 Snapshot views} *)

let snapshot_view r =
  if Option.is_some r.view then invalid_arg "Mem.snapshot_view: already a snapshot view";
  { r with view = Some (Arena.shadow_attach r.arena) }

let release_view r =
  match r.view with
  | Some s ->
      if not (Arena.shadow_live s) then
        invalid_arg "Mem.release_view: view already released";
      Arena.shadow_detach r.arena s
  | None -> invalid_arg "Mem.release_view: not a snapshot view"

let is_view r = Option.is_some r.view
let view_live r = match r.view with Some s -> Arena.shadow_live s | None -> false
let view_cow_bytes r = match r.view with Some s -> Arena.shadow_cow_bytes s | None -> 0

let[@inline] check_writable r name =
  match r.view with
  | None -> ()
  | Some _ -> invalid_arg ("Mem." ^ name ^ ": snapshot views are read-only")

(* View-aware byte read: the one branch every snapshot read path pays.
   Top-level and allocation-free — used by the hot comparison scans. *)
let[@pklint.hot] view_get_u8 r off =
  match r.view with
  | None -> Arena.get_u8 r.arena off
  | Some s -> Arena.shadow_get_u8 r.arena s off

let region_name r = Arena.name r.arena
let mem r = r.owner
let base r = r.region_base
let live_bytes r = Arena.live_bytes r.arena
let used_bytes r = Arena.used_bytes r.arena

let alloc r ?align size =
  check_writable r "alloc";
  Arena.alloc r.arena ?align size

let reserve r ?align ?huge size =
  check_writable r "reserve";
  Arena.reserve r.arena ?align ?huge size

let alloc_at r ~off size =
  check_writable r "alloc_at";
  Arena.alloc_at r.arena ~off size

let free r off size =
  check_writable r "free";
  Arena.free r.arena off size
let in_txn r = Arena.in_txn r.arena

let guard r f =
  if (not (Fault.unwind_enabled ())) || Arena.in_txn r.arena then f ()
  else begin
    Arena.begin_txn r.arena;
    match f () with
    | v ->
        Arena.commit_txn r.arena;
        v
    | exception e ->
        Arena.abort_txn r.arena;
        raise e
  end

let[@inline] charge r off len =
  match r.owner.sim with
  | Some sim when r.owner.trace_on ->
      (* Cache-simulation bookkeeping runs only under tracing, never in
         the steady-state hot path (where [charge] is a null check). *)
      (Cachesim.touch sim ~addr:(r.region_base + off) ~len [@pklint.cold])
  | Some _ | None -> ()

let read_u8 r off =
  Fault.point "mem.read";
  charge r off 1;
  view_get_u8 r off

let write_u8 r off v =
  Fault.point "mem.write";
  check_writable r "write_u8";
  charge r off 1;
  Arena.set_u8 r.arena off v

let read_u16 r off =
  Fault.point "mem.read";
  charge r off 2;
  match r.view with
  | None -> Arena.get_u16 r.arena off
  | Some s -> Arena.shadow_get_u16 r.arena s off

let write_u16 r off v =
  Fault.point "mem.write";
  check_writable r "write_u16";
  charge r off 2;
  Arena.set_u16 r.arena off v

let read_u32 r off =
  Fault.point "mem.read";
  charge r off 4;
  match r.view with
  | None -> Arena.get_u32 r.arena off
  | Some s -> Arena.shadow_get_u32 r.arena s off

let write_u32 r off v =
  Fault.point "mem.write";
  check_writable r "write_u32";
  charge r off 4;
  Arena.set_u32 r.arena off v

let read_u64 r off =
  Fault.point "mem.read";
  charge r off 8;
  match r.view with
  | None -> Arena.get_u64 r.arena off
  | Some s -> Arena.shadow_get_u64 r.arena s off

let write_u64 r off v =
  Fault.point "mem.write";
  check_writable r "write_u64";
  charge r off 8;
  Arena.set_u64 r.arena off v

let read_bytes r ~off ~len =
  Fault.point "mem.read";
  charge r off len;
  match r.view with
  | None -> Arena.sub_bytes r.arena ~off ~len
  | Some s ->
      let dst = Bytes.create len in
      Arena.shadow_blit_to_bytes r.arena s ~src_off:off ~dst ~dst_off:0 ~len;
      dst

let[@pklint.hot] read_into r ~off ~dst ~dst_off ~len =
  Fault.point "mem.read";
  charge r off len;
  match r.view with
  | None -> Arena.blit_to_bytes r.arena ~src_off:off ~dst ~dst_off ~len
  | Some s -> Arena.shadow_blit_to_bytes r.arena s ~src_off:off ~dst ~dst_off ~len

let write_bytes r ~off ~src ~src_off ~len =
  Fault.point "mem.write";
  check_writable r "write_bytes";
  charge r off len;
  Arena.blit_from_bytes r.arena ~src ~src_off ~dst_off:off ~len

let move r ~src_off ~dst_off ~len =
  Fault.point "mem.write";
  check_writable r "move";
  charge r src_off len;
  charge r dst_off len;
  Arena.blit_within r.arena ~src_off ~dst_off ~len

(* [Stdlib.min] is polymorphic: without flambda each call is a call
   into the generic comparison.  The comparisons below run on every
   lookup, so they take the int minimum inline. *)
let[@inline] imin (a : int) b = if a < b then a else b

(* Top-level recursion (not an inner [let rec]) so no closure is
   allocated: the comparison is on every lookup's hot path and must not
   touch the OCaml heap.  Returns the packed [(diff lsl 2) lor (sign + 1)]. *)
let[@pklint.hot] rec detail_scan r off (len : int) probe key_off (key_len : int) common i =
  if i >= common then
    (common lsl 2) lor (if len = key_len then 1 else if len < key_len then 0 else 2)
  else
    let a = view_get_u8 r (off + i) in
    let b = Char.code (Bytes.get probe (key_off + i)) in
    if a <> b then (i lsl 2) lor (if a < b then 0 else 2)
    else detail_scan r off len probe key_off key_len common (i + 1)

let[@pklint.hot] compare_detail r ~off ~len probe ~key_off ~key_len =
  Fault.point "mem.read";
  let common = imin len key_len in
  let p = detail_scan r off len probe key_off key_len common 0 in
  let examined = imin ((p lsr 2) + 1) common in
  if examined > 0 then charge r off examined;
  p

(* The sign-only scan the direct and indirect lookups run: it charges
   as it returns, sparing them [compare_detail]'s packing. *)
let[@pklint.hot] rec sign_scan r off (len : int) probe key_off (key_len : int) common i =
  if i >= common then begin
    if common > 0 then charge r off common;
    if len = key_len then 0 else if len < key_len then -1 else 1
  end
  else
    let a = view_get_u8 r (off + i) in
    let b = Char.code (Bytes.get probe (key_off + i)) in
    if a <> b then begin
      charge r off (i + 1);
      if a < b then -1 else 1
    end
    else sign_scan r off len probe key_off key_len common (i + 1)

let[@pklint.hot] compare_sign r ~off ~len probe ~key_off ~key_len =
  Fault.point "mem.read";
  sign_scan r off len probe key_off key_len (imin len key_len) 0

let touch r ~off ~len = charge r off len
