module Obs = Pk_obs.Obs

type op =
  | Insert of { key : bytes; payload : bytes }
  | Delete of { key : bytes }

type t = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable next_batch : int;
  mutable n_records : int;
  mutable n_commits : int;
  mutable torn : int;  (** bytes of a torn final record dropped by [of_bytes] *)
}

let tag_insert = 1
let tag_delete = 2
let tag_commit = 3
let magic = "PKJ1"

let m_bytes = Obs.Counter.register Obs.Registry.default "pk_journal_bytes"
let m_records = Obs.Counter.register Obs.Registry.default "pk_journal_records_total"
let m_commits = Obs.Counter.register Obs.Registry.default "pk_journal_commits_total"

let create () =
  { buf = Bytes.create 256; len = 0; next_batch = 1; n_records = 0; n_commits = 0; torn = 0 }

let byte_size t = t.len
let torn_bytes t = t.torn
let record_count t = t.n_records
let commit_count t = t.n_commits
let last_batch t = t.next_batch - 1

(* {2 Append} *)

let reserve t n =
  let want = t.len + n in
  if want > Bytes.length t.buf then begin
    let cap = ref (Bytes.length t.buf) in
    while !cap < want do
      cap := !cap * 2
    done;
    let b = Bytes.make !cap '\000' in
    Bytes.blit t.buf 0 b 0 t.len;
    t.buf <- b
  end

let put_u8 t v =
  Bytes.set t.buf t.len (Char.chr (v land 0xff));
  t.len <- t.len + 1

let put_u16 t v =
  Bytes.set_uint16_le t.buf t.len (v land 0xffff);
  t.len <- t.len + 2

let put_u32 t v =
  Bytes.set_int32_le t.buf t.len (Int32.of_int v);
  t.len <- t.len + 4

let put_slice t b =
  Bytes.blit b 0 t.buf t.len (Bytes.length b);
  t.len <- t.len + Bytes.length b

let begin_batch t =
  let b = t.next_batch in
  t.next_batch <- b + 1;
  b

let check_batch name batch =
  if batch <= 0 || batch > 0xffffffff then
    invalid_arg (Printf.sprintf "Journal.%s: bad batch id %d" name batch)

let log_insert t ~batch ~key ~payload =
  check_batch "log_insert" batch;
  if Bytes.length key > 0xffff then invalid_arg "Journal.log_insert: key too long";
  let size = 1 + 4 + 2 + Bytes.length key + 4 + Bytes.length payload in
  reserve t size;
  put_u8 t tag_insert;
  put_u32 t batch;
  put_u16 t (Bytes.length key);
  put_slice t key;
  put_u32 t (Bytes.length payload);
  put_slice t payload;
  t.n_records <- t.n_records + 1;
  Obs.Counter.add m_bytes size;
  Obs.Counter.incr m_records

let log_delete t ~batch ~key =
  check_batch "log_delete" batch;
  if Bytes.length key > 0xffff then invalid_arg "Journal.log_delete: key too long";
  let size = 1 + 4 + 2 + Bytes.length key in
  reserve t size;
  put_u8 t tag_delete;
  put_u32 t batch;
  put_u16 t (Bytes.length key);
  put_slice t key;
  t.n_records <- t.n_records + 1;
  Obs.Counter.add m_bytes size;
  Obs.Counter.incr m_records

let commit t ~batch =
  check_batch "commit" batch;
  let size = 1 + 4 in
  reserve t size;
  put_u8 t tag_commit;
  put_u32 t batch;
  t.n_commits <- t.n_commits + 1;
  Obs.Counter.add m_bytes size;
  Obs.Counter.incr m_commits

(* {2 Replay} *)

(* The buffer ends inside a record: a torn tail. *)
exception Torn

let get_u8 t off =
  if off + 1 > t.len then raise Torn;
  Char.code (Bytes.get t.buf off)

let get_u16 t off =
  if off + 2 > t.len then raise Torn;
  Bytes.get_uint16_le t.buf off

let get_u32 t off =
  if off + 4 > t.len then raise Torn;
  Int32.to_int (Bytes.get_int32_le t.buf off) land 0xffffffff

let get_slice t off len =
  if off + len > t.len then raise Torn;
  Bytes.sub t.buf off len

(* Parse the record at [off], hand it to [f] and return the offset just
   past it.  Raises [Torn] (before calling [f]) when the buffer ends
   inside the record, [Invalid_argument] when it is malformed. *)
let read_record t off f =
  let tag = get_u8 t off in
  if tag <> tag_insert && tag <> tag_delete && tag <> tag_commit then
    invalid_arg (Printf.sprintf "Journal: bad record tag %d at offset %d" tag off);
  let batch = get_u32 t (off + 1) in
  if batch = 0 then invalid_arg (Printf.sprintf "Journal: bad batch id 0 at offset %d" off);
  if tag = tag_commit then begin
    f ~off ~batch None;
    off + 5
  end
  else begin
    let klen = get_u16 t (off + 5) in
    let key = get_slice t (off + 7) klen in
    let next = off + 7 + klen in
    if tag = tag_insert then begin
      let plen = get_u32 t next in
      let payload = get_slice t (next + 4) plen in
      f ~off ~batch (Some (Insert { key; payload }));
      next + 4 + plen
    end
    else begin
      f ~off ~batch (Some (Delete { key }));
      next
    end
  end

let iter_records t f =
  let off = ref 0 in
  while !off < t.len do
    off := try read_record t !off f with Torn -> invalid_arg "Journal: truncated record"
  done

let committed_batches t =
  let acc = ref [] in
  iter_records t (fun ~off:_ ~batch op -> if Option.is_none op then acc := batch :: !acc);
  List.sort_uniq compare !acc

(* Two passes: first the set of batches whose commit marker landed
   (its size is the committed batch count), then their operations in
   append order — correct even if batches were ever interleaved in the
   byte stream. *)
let committed_ops t =
  let committed = Hashtbl.create 16 in
  iter_records t (fun ~off:_ ~batch op ->
      if Option.is_none op then Hashtbl.replace committed batch ());
  let acc = ref [] in
  iter_records t (fun ~off:_ ~batch op ->
      match op with
      | Some op when Hashtbl.mem committed batch -> acc := (batch, op) :: !acc
      | Some _ | None -> ());
  (Hashtbl.length committed, List.rev !acc)

(* {2 Serialization} *)

let to_bytes t =
  let out = Bytes.create (4 + t.len) in
  Bytes.blit_string magic 0 out 0 4;
  Bytes.blit t.buf 0 out 4 t.len;
  out

let of_bytes b =
  if Bytes.length b < 4 || not (String.equal (Bytes.sub_string b 0 4) magic) then
    invalid_arg "Journal.of_bytes: bad magic";
  let len = Bytes.length b - 4 in
  let t =
    { buf = Bytes.sub b 4 len; len; next_batch = 1; n_records = 0; n_commits = 0; torn = 0 }
  in
  (* Validate framing and recompute counts / next batch id.  A torn
     final record — the crash landed mid-append — is an uncommitted
     suffix: drop it, so later appends overwrite it. *)
  let top = ref 0 in
  let count ~off:_ ~batch op =
    top := Stdlib.max !top batch;
    match op with
    | Some _ -> t.n_records <- t.n_records + 1
    | None -> t.n_commits <- t.n_commits + 1
  in
  let off = ref 0 in
  (try
     while !off < t.len do
       off := read_record t !off count
     done
   with Torn ->
     t.torn <- t.len - !off;
     t.len <- !off);
  t.next_batch <- !top + 1;
  t

let save t path =
  let oc = Out_channel.open_bin path in
  Fun.protect
    ~finally:(fun () -> Out_channel.close oc)
    (fun () -> Out_channel.output_bytes oc (to_bytes t))

let load path =
  let ic = In_channel.open_bin path in
  let data =
    Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () -> In_channel.input_all ic)
  in
  of_bytes (Bytes.of_string data)
