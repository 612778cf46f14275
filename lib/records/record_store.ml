module Mem = Pk_mem.Mem
module Key = Pk_keys.Key

type t = { reg : Mem.region; line : int; mutable live : int }

let header_bytes = 8
let null = Pk_arena.Arena.null

let create ?(line = 64) mem =
  if line <= 0 || line land (line - 1) <> 0 then
    invalid_arg "Record_store.create: line must be a power of two";
  { reg = Mem.new_region mem ~initial_capacity:(1 lsl 20) ~name:"records" (); line; live = 0 }

let region t = t.reg

(* Read-only copy-on-write view of the store at the current instant:
   reads resolve against the pinned epoch, mutations raise (rejected by
   the underlying view region). *)
let snapshot_view t = { t with reg = Mem.snapshot_view t.reg }
let release_view t = Mem.release_view t.reg

let record_size t ~key_len ~payload_len =
  ignore t;
  header_bytes + key_len + payload_len

let insert t ~key ~payload =
  let key_len = Bytes.length key and payload_len = Bytes.length payload in
  if key_len > 0xffff || payload_len > 0xffff then invalid_arg "Record_store.insert: too large";
  let size = record_size t ~key_len ~payload_len in
  let addr = Mem.alloc t.reg ~align:t.line size in
  Mem.write_u16 t.reg addr key_len;
  Mem.write_u16 t.reg (addr + 2) payload_len;
  Mem.write_bytes t.reg ~off:(addr + header_bytes) ~src:key ~src_off:0 ~len:key_len;
  Mem.write_bytes t.reg
    ~off:(addr + header_bytes + key_len)
    ~src:payload ~src_off:0 ~len:payload_len;
  t.live <- t.live + 1;
  addr

let key_len t addr = Mem.read_u16 t.reg addr

let payload_len t addr = Mem.read_u16 t.reg (addr + 2)

let delete t addr =
  let size = record_size t ~key_len:(key_len t addr) ~payload_len:(payload_len t addr) in
  Mem.free t.reg addr size;
  t.live <- t.live - 1

let read_key t addr =
  let len = key_len t addr in
  Mem.read_bytes t.reg ~off:(addr + header_bytes) ~len

let[@pklint.hot] read_key_into t addr ~len dst =
  Mem.read_into t.reg ~off:(addr + header_bytes) ~dst ~dst_off:0 ~len

let read_payload t addr =
  let klen = key_len t addr in
  let plen = payload_len t addr in
  Mem.read_bytes t.reg ~off:(addr + header_bytes + klen) ~len:plen

let count t = t.live
let live_bytes t = Mem.live_bytes t.reg

let[@pklint.hot] compare_stored t addr ~len probe =
  Mem.compare_detail t.reg ~off:(addr + header_bytes) ~len probe ~key_off:0
    ~key_len:(Bytes.length probe)

let[@pklint.hot] compare_key t addr probe = compare_stored t addr ~len:(key_len t addr) probe

let[@pklint.hot] compare_sign t addr probe =
  let len = key_len t addr in
  Mem.compare_sign t.reg ~off:(addr + header_bytes) ~len probe ~key_off:0
    ~key_len:(Bytes.length probe)

(* [key_len] is read once: the length check below reuses it. *)
let[@pklint.hot] compare_key_bits t addr probe =
  let len = key_len t addr in
  let p = compare_stored t addr ~len probe in
  let d = Key.packed_off p in
  if Key.packed_sign p = 0 then Key.pack_sign 0 (8 * d)
  else if d >= len || d >= Bytes.length probe then
    (* Difference is a length difference: first differing "bit" is
       the first bit past the common prefix. *)
    Key.pack_sign (Key.packed_sign p) (8 * d)
  else
    let stored = Mem.read_u8 t.reg (addr + header_bytes + d) in
    let x = stored lxor Char.code (Bytes.get probe d) in
    Key.pack_sign (Key.packed_sign p) ((8 * d) + Pk_keys.Bitops.leading_zeros8 x)
