(* Telecom call-detail sessions — the workload class that motivated
   main-memory databases like DataBlitz (the paper's §1 and [2]).

   A session table is keyed by (subscriber number, start timestamp):
   a 16-byte composite key, well past the 12-20-byte crossover where
   the paper shows partial-key trees overtaking direct B-trees.  The
   example builds the same index under three schemes, runs an OLTP mix
   (new sessions, lookups, expiry deletions), and answers the classic
   per-subscriber range query.

   Run with:  dune exec examples/telecom_sessions.exe *)

module Prng = Pk_util.Prng
module Tables = Pk_util.Tables
module Measure = Pk_util.Measure
module Key = Pk_keys.Key
module Record_store = Pk_records.Record_store
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Partial_key = Pk_partialkey.Partial_key
module Workload = Pk_workload.Workload

let n_subscribers = 5_000
let sessions_per_subscriber = 12

(* Composite key: subscriber E.164 number (8 bytes, zero-padded
   digits) then a big-endian timestamp (8 bytes).  Fixed-width
   segments concatenate directly and compare byte-wise, so the
   partial-key machinery applies unchanged. *)
let session_key ~subscriber ~ts =
  Key.encode_segments
    [
      Key.Fixed
        (Bytes.init 8 (fun i -> Char.chr ((subscriber lsr (8 * (7 - i))) land 0xff)));
      Key.Fixed (Bytes.init 8 (fun i -> Char.chr ((ts lsr (8 * (7 - i))) land 0xff)));
    ]

let () =
  let env = Workload.make_env () in
  let records = env.Workload.records in
  let rng = Prng.create 2026L in

  (* Generate the session population. *)
  let sessions =
    Array.init (n_subscribers * sessions_per_subscriber) (fun i ->
        let subscriber = 0x3930_0000 + (i / sessions_per_subscriber) in
        let ts = 1_700_000_000 + Prng.int rng 86_400_00 in
        (subscriber, ts))
  in
  (* Deduplicate (subscriber, ts) collisions by nudging timestamps. *)
  let seen = Hashtbl.create (Array.length sessions) in
  let sessions =
    Array.map
      (fun (s, ts) ->
        let rec fresh ts = if Hashtbl.mem seen (s, ts) then fresh (ts + 1) else ts in
        let ts = fresh ts in
        Hashtbl.add seen (s, ts) ();
        (s, ts))
      sessions
  in

  let schemes =
    [
      ("pkB (partial keys)", Index.B_tree,
       Layout.Partial { granularity = Partial_key.Byte; l_bytes = 2 });
      ("B-direct (inline keys)", Index.B_tree, Layout.Direct { key_len = 16 });
      ("T-indirect (Lehman-Carey)", Index.T_tree, Layout.Indirect);
    ]
  in

  let t =
    Tables.create
      ~columns:
        [
          ("index", Tables.Left);
          ("load ms", Tables.Right);
          ("lookup ns", Tables.Right);
          ("mixed-op ns", Tables.Right);
          ("index B/key", Tables.Right);
          ("height", Tables.Right);
        ]
  in
  let indexes =
    List.map
      (fun (name, structure, scheme) ->
        let ix = Index.make structure scheme env.Workload.mem records in
        let (), load_s =
          Measure.time (fun () ->
              Array.iter
                (fun (s, ts) ->
                  let key = session_key ~subscriber:s ~ts in
                  let payload = Bytes.of_string (Printf.sprintf "cdr:%d:%d" s ts) in
                  let rid = Record_store.insert records ~key ~payload in
                  assert (ix.Index.insert key ~rid))
                sessions)
        in

        (* Point lookups of random live sessions. *)
        let probes =
          Array.init 20_000 (fun i ->
              let s, ts = sessions.((i * 7919) mod Array.length sessions) in
              session_key ~subscriber:s ~ts)
        in
        let (), lookup_s =
          Measure.time (fun () -> Array.iter (fun k -> assert (ix.Index.lookup k <> None)) probes)
        in

        (* OLTP mix: 60% lookups, 20% new sessions, 20% expiries. *)
        let mix_rng = Prng.create 7L in
        let live = Array.map (fun st -> Some st) sessions in
        let ops = 30_000 in
        let (), mixed_s =
          Measure.time (fun () ->
              for _ = 1 to ops do
                let i = Prng.int mix_rng (Array.length live) in
                let r = Prng.int mix_rng 100 in
                match live.(i) with
                | Some (s, ts) when r < 60 ->
                    ignore (ix.Index.lookup (session_key ~subscriber:s ~ts))
                | Some (s, ts) when r >= 80 ->
                    ignore (ix.Index.delete (session_key ~subscriber:s ~ts));
                    live.(i) <- None
                | Some _ -> ()
                | None ->
                    let s = 0x3930_0000 + Prng.int mix_rng n_subscribers in
                    let ts = 1_800_000_000 + Prng.int mix_rng 1_000_000_000 in
                    let key = session_key ~subscriber:s ~ts in
                    let rid = Record_store.insert records ~key ~payload:Bytes.empty in
                    if ix.Index.insert key ~rid then live.(i) <- Some (s, ts)
                    else Record_store.delete records rid
              done)
        in
        ix.Index.validate ();
        Tables.add_row t
          [
            name;
            Tables.fmt_float ~decimals:0 (load_s *. 1e3);
            Tables.fmt_float ~decimals:0 (lookup_s *. 1e9 /. float_of_int (Array.length probes));
            Tables.fmt_float ~decimals:0 (mixed_s *. 1e9 /. float_of_int ops);
            Tables.fmt_float ~decimals:1
              (float_of_int (ix.Index.space_bytes ()) /. float_of_int (ix.Index.count ()));
            string_of_int (ix.Index.height ());
          ];
        (name, ix))
      schemes
  in
  Printf.printf "%d subscribers, %d sessions, 16-byte (number, timestamp) keys\n\n" n_subscribers
    (Array.length sessions);
  Tables.print t;

  (* Per-subscriber range query: all sessions of one number, via the
     natural composite-key prefix range. *)
  let _, pkb = List.hd indexes in
  let subscriber = 0x3930_0000 + 1234 in
  let lo = session_key ~subscriber ~ts:0 in
  let hi = session_key ~subscriber ~ts:max_int in
  let hits = ref 0 in
  pkb.Index.range ~lo ~hi (fun ~key:_ ~rid:_ -> incr hits);
  Printf.printf "\nsessions for subscriber %x via prefix range scan: %d\n" subscriber !hits
