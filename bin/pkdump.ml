(* pkdump — build an index from command-line parameters and report its
   structure, space and lookup cache behaviour.  Handy for exploring a
   configuration before committing to a benchmark run.

   Example:
     pkdump --structure b --scheme pk-byte-2 --keys 100000 --key-len 20 \
            --entropy 3.6 --machine ultra30 *)

open Cmdliner
module Machine = Pk_cachesim.Machine
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Partial_key = Pk_partialkey.Partial_key
module Workload = Pk_workload.Workload
module Keygen = Pk_keys.Keygen
module Tables = Pk_util.Tables

(* A registry scheme tag, checked against the table while the command
   line is parsed (an unknown tag is a usage error listing the valid
   ones). *)
let scheme_tag =
  Arg.conv'
    ( (fun tag ->
        match Pk_core.Index.Registry.get tag with
        | _ -> Ok tag
        | exception Invalid_argument msg -> Error msg),
      Format.pp_print_string )

let parse_scheme s ~key_len =
  match String.lowercase_ascii s with
  | "direct" -> Ok (Layout.Direct { key_len })
  | "indirect" -> Ok Layout.Indirect
  | s -> (
      (* pk-<granularity>-<l>  e.g. pk-byte-2, pk-bit-0 *)
      match String.split_on_char '-' s with
      | [ "pk"; g; l ] -> (
          match (g, int_of_string_opt l) with
          | "byte", Some l when l >= 0 ->
              Ok (Layout.Partial { granularity = Partial_key.Byte; l_bytes = l })
          | "bit", Some l when l >= 0 ->
              Ok (Layout.Partial { granularity = Partial_key.Bit; l_bytes = l })
          | _ -> Error (`Msg "scheme: expected pk-(bit|byte)-<l>"))
      | _ -> Error (`Msg "scheme: expected direct | indirect | pk-(bit|byte)-<l>"))

let run structure scheme keys key_len entropy (machine : Machine.t) node_blocks lookups validate =
  let structure =
    match String.lowercase_ascii structure with
    | "b" | "btree" | "b-tree" -> Index.B_tree
    | "t" | "ttree" | "t-tree" -> Index.T_tree
    | s -> failwith ("unknown structure " ^ s)
  in
  let scheme =
    match parse_scheme scheme ~key_len with Ok s -> s | Error (`Msg m) -> failwith m
  in
  let alphabet = Keygen.alphabet_for_entropy entropy in
  let env = Workload.make_env ~machine () in
  let ds = Workload.make_dataset env ~key_len ~alphabet ~n:keys () in
  let ix =
    Index.make ~node_bytes:(node_blocks * machine.Machine.l2.Pk_cachesim.Cachesim.block_bytes)
      structure scheme env.Workload.mem env.Workload.records
  in
  let (), load_s = Pk_util.Measure.time (fun () -> Workload.load ds ix) in
  if validate then ix.Index.validate ();
  let warm = Workload.probes ds ~seed:11 ~n:(min 3000 keys) () in
  let all = Workload.probes ds ~seed:12 ~n:(3000 + lookups) () in
  let probes = Array.sub all (min 3000 keys) lookups in
  let cs = Workload.measure_cache env ix ~warm ~probes in
  let wall = Workload.wall_ns_per_op env ix ~probes in
  Printf.printf "index           %s\n" ix.Index.tag;
  Printf.printf "machine         %s\n" machine.Machine.machine_name;
  Printf.printf "keys            %s of %d bytes (entropy %.2f bits/byte)\n"
    (Tables.fmt_int keys) key_len
    (Keygen.entropy_of_alphabet alphabet);
  Printf.printf "build           %.2fs (%s keys/s)\n" load_s
    (Tables.fmt_int (int_of_float (float_of_int keys /. load_s)));
  Printf.printf "height          %d\n" (ix.Index.height ());
  Printf.printf "nodes           %s (%d-byte nodes)\n"
    (Tables.fmt_int (ix.Index.node_count ()))
    (node_blocks * machine.Machine.l2.Pk_cachesim.Cachesim.block_bytes);
  Printf.printf "index space     %s (%.1f bytes/key)\n"
    (Tables.fmt_bytes (ix.Index.space_bytes ()))
    (float_of_int (ix.Index.space_bytes ()) /. float_of_int keys);
  Printf.printf "record space    %s\n"
    (Tables.fmt_bytes (Pk_records.Record_store.live_bytes env.Workload.records));
  Printf.printf "lookup          %.0f ns/op wall, %.2f L2 miss/op, %.2f L1 miss/op\n" wall
    cs.Workload.l2_per_op cs.Workload.l1_per_op;
  Printf.printf "                %.3f record derefs/op, %.2f node visits/op, %.2f us/op simulated\n"
    cs.Workload.derefs_per_op cs.Workload.visits_per_op
    (cs.Workload.sim_ns_per_op /. 1000.0);
  if validate then Printf.printf "validate        ok\n"

(* {2 trace subcommand} — build a small index, flip its ring buffer on
   and pretty-print the descent of each probe. *)

module Obs = Pk_obs.Obs

let run_trace structure scheme keys key_len entropy node_bytes probes capacity =
  let structure =
    match String.lowercase_ascii structure with
    | "b" | "btree" | "b-tree" -> Index.B_tree
    | "t" | "ttree" | "t-tree" -> Index.T_tree
    | s -> failwith ("unknown structure " ^ s)
  in
  let scheme =
    match parse_scheme scheme ~key_len with Ok s -> s | Error (`Msg m) -> failwith m
  in
  let alphabet = Keygen.alphabet_for_entropy entropy in
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len ~alphabet ~n:keys () in
  let ix = Index.make ~node_bytes structure scheme env.Workload.mem env.Workload.records in
  Workload.load ds ix;
  Printf.printf "index  %s: %d keys, height %d, %d nodes; ring capacity %d\n" ix.Index.tag keys
    (ix.Index.height ()) (ix.Index.node_count ()) capacity;
  Obs.Trace.enable ~capacity ix.Index.trace;
  let ps = Workload.probes ds ~seed:5 ~n:probes () in
  Array.iter
    (fun k ->
      let rid = ix.Index.lookup k in
      Printf.printf "\nlookup %s -> %s\n" (Pk_keys.Key.to_hex k)
        (match rid with Some r -> "rid " ^ string_of_int r | None -> "absent");
      let events, dropped = Obs.Trace.drain ix.Index.trace in
      if dropped > 0 then Printf.printf "  ... %d events dropped (ring lapped)\n" dropped;
      List.iter (fun e -> Printf.printf "  %s\n" (Obs.Trace.event_to_string e)) events)
    ps

(* {2 layout subcommand} — bulk load a registered scheme and report
   where the placement plan put every node: per-level block residency
   (distinct pages and hugepages actually touched vs the contiguous
   ideal) plus the plan's extent and padding. *)

let run_layout tag keys key_len entropy fill =
  let alphabet = Keygen.alphabet_for_entropy entropy in
  let env = Workload.make_env () in
  let ds = Workload.make_dataset env ~key_len ~alphabet ~n:keys () in
  let ix = Index.Registry.build ~key_len tag env.Workload.mem env.Workload.records in
  ix.Index.of_sorted ~fill (Workload.sorted_pairs ds);
  Printf.printf "index   %s: %s keys, height %d, %s nodes\n" ix.Index.tag (Tables.fmt_int keys)
    (ix.Index.height ())
    (Tables.fmt_int (ix.Index.node_count ()));
  match ix.Index.layout () with
  | None -> print_endline "layout  no placement plan recorded (index was not bulk loaded)"
  | Some p when Layout.Placement.is_flat p ->
      print_endline
        "layout  flat: the bulk load bump-allocated level by level; no planned offsets\n\
        \        (build with a *-blocked registry tag for a placement plan)"
  | Some p ->
      let nb = Layout.Placement.node_bytes p in
      let line, page, huge =
        match Layout.Placement.block_sizes p with Some s -> s | None -> assert false
      in
      Printf.printf "layout  blocked: %d B lines, %s pages, %s hugepages; extent %s, padding %s\n"
        line (Tables.fmt_bytes page) (Tables.fmt_bytes huge)
        (Tables.fmt_bytes (Layout.Placement.extent p))
        (Tables.fmt_bytes (Layout.Placement.padding p));
      let t =
        Tables.create
          ~columns:
            [
              ("level", Tables.Right);
              ("nodes", Tables.Right);
              ("bytes", Tables.Right);
              ("8K pages", Tables.Right);
              ("ideal", Tables.Right);
              ("2M blocks", Tables.Right);
            ]
      in
      for level = 0 to Layout.Placement.level_count p - 1 do
        let n = Layout.Placement.nodes_at p ~level in
        let pages = Hashtbl.create 64 and huges = Hashtbl.create 8 in
        for i = 0 to n - 1 do
          match Layout.Placement.offset p ~level ~index:i with
          | None -> ()
          | Some off ->
              (* A node can straddle two blocks; count both. *)
              Hashtbl.replace pages (off / page) ();
              Hashtbl.replace pages ((off + nb - 1) / page) ();
              Hashtbl.replace huges (off / huge) ();
              Hashtbl.replace huges ((off + nb - 1) / huge) ()
        done;
        Tables.add_row t
          [
            string_of_int level;
            Tables.fmt_int n;
            Tables.fmt_bytes (n * nb);
            Tables.fmt_int (Hashtbl.length pages);
            Tables.fmt_int (((n * nb) + page - 1) / page);
            Tables.fmt_int (Hashtbl.length huges);
          ]
      done;
      Tables.print t;
      print_endline
        "        (levels interleave: a level touching more pages than its contiguous ideal\n\
        \        is the banding at work — its nodes sit next to their parents instead)"

(* {2 journal subcommand} — raw view of a write-ahead operation
   journal: per-record framing plus the committed/uncommitted split
   recovery would apply. *)

module Journal = Pk_journal.Journal

let run_journal path limit =
  let j = Journal.load path in
  let committed = Journal.committed_batches j in
  let in_committed b = List.mem b committed in
  Printf.printf "journal  %s: %s, %d records, %d commits, last batch %d\n" path
    (Tables.fmt_bytes (Journal.byte_size j))
    (Journal.record_count j) (Journal.commit_count j) (Journal.last_batch j);
  if Journal.torn_bytes j > 0 then
    Printf.printf "         torn tail: %d bytes of an incomplete final record dropped\n"
      (Journal.torn_bytes j);
  let uncommitted = ref 0 in
  Journal.iter_records j (fun ~off:_ ~batch op ->
      match op with
      | Some _ when not (in_committed batch) -> incr uncommitted
      | _ -> ());
  Printf.printf "         committed batches: %s; %d uncommitted records (discarded on replay)\n"
    (String.concat "," (List.map string_of_int committed))
    !uncommitted;
  let shown = ref 0 in
  Journal.iter_records j (fun ~off ~batch op ->
      if !shown < limit then begin
        incr shown;
        let mark = if in_committed batch then ' ' else '!' in
        match op with
        | None -> Printf.printf "%08x  batch %-5d commit\n" off batch
        | Some (Journal.Insert { key; payload }) ->
            Printf.printf "%08x %cbatch %-5d insert %s  payload %db\n" off mark batch
              (Pk_keys.Key.to_hex key) (Bytes.length payload)
        | Some (Journal.Delete { key }) ->
            Printf.printf "%08x %cbatch %-5d delete %s\n" off mark batch
              (Pk_keys.Key.to_hex key)
      end);
  if Journal.record_count j + Journal.commit_count j > limit then
    Printf.printf "         ... %d more records (raise --limit)\n"
      (Journal.record_count j + Journal.commit_count j - limit)

let () =
  let structure =
    Arg.(value & opt string "b" & info [ "structure"; "s" ] ~docv:"b|t" ~doc:"Tree structure.")
  in
  let scheme =
    Arg.(
      value
      & opt string "pk-byte-2"
      & info [ "scheme" ] ~docv:"S" ~doc:"Key storage: direct, indirect, or pk-(bit|byte)-<l>.")
  in
  let keys = Arg.(value & opt int 100_000 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Indexed keys.") in
  let key_len = Arg.(value & opt int 20 & info [ "key-len" ] ~docv:"B" ~doc:"Key length in bytes.") in
  let entropy =
    Arg.(value & opt float 3.6 & info [ "entropy" ] ~docv:"H" ~doc:"Bits of entropy per key byte.")
  in
  let machine =
    (* Checked while parsing: an unknown preset is a usage error
       listing the valid ones. *)
    let short_name m =
      List.find
        (fun n -> match Machine.by_name n with Some p -> p == m | None -> false)
        Machine.preset_names
    in
    let preset = Arg.conv' (Machine.of_name, fun ppf m -> Format.pp_print_string ppf (short_name m)) in
    Arg.(
      value & opt preset Machine.ultra30
      & info [ "machine" ] ~docv:"M" ~doc:"Simulated machine preset (Table 2, or modern).")
  in
  let node_blocks =
    Arg.(value & opt int 3 & info [ "node-blocks" ] ~docv:"N" ~doc:"Node size in L2 blocks.")
  in
  let lookups = Arg.(value & opt int 8000 & info [ "lookups" ] ~docv:"N" ~doc:"Measured lookups.") in
  let validate = Arg.(value & flag & info [ "validate" ] ~doc:"Run the full invariant checker.") in
  let term =
    Term.(
      const run $ structure $ scheme $ keys $ key_len $ entropy $ machine $ node_blocks $ lookups
      $ validate)
  in
  let trace_cmd =
    let trace_keys =
      Arg.(value & opt int 1_000 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Indexed keys.")
    in
    let node_bytes =
      Arg.(value & opt int 192 & info [ "node-bytes" ] ~docv:"B" ~doc:"Node size in bytes.")
    in
    let probes =
      Arg.(value & opt int 3 & info [ "probes" ] ~docv:"N" ~doc:"Lookups to trace.")
    in
    let capacity =
      Arg.(value & opt int 1024 & info [ "capacity" ] ~docv:"N" ~doc:"Trace ring capacity (rounded up to a power of two).")
    in
    Cmd.v
      (Cmd.info "trace"
         ~doc:
           "build a small index, enable its descent trace ring and pretty-print each probe's \
            events (visits, partial-key outcomes, dereferences, routes)")
      Term.(
        const run_trace $ structure $ scheme $ trace_keys $ key_len $ entropy $ node_bytes $ probes
        $ capacity)
  in
  let layout_cmd =
    let tag =
      Arg.(value & opt scheme_tag "pkB-blocked" & info [ "tag" ] ~docv:"TAG" ~doc:"Registry scheme tag (see pkbench list-schemes); *-blocked tags carry a placement plan.")
    in
    let layout_keys =
      Arg.(value & opt int 100_000 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Bulk-loaded keys.")
    in
    let fill =
      Arg.(value & opt float 1.0 & info [ "fill" ] ~docv:"F" ~doc:"Bulk-load fill factor, clamped to [0.5, 1.0].")
    in
    Cmd.v
      (Cmd.info "layout"
         ~doc:
           "bulk load one registered scheme and print its node-placement plan: per-level page \
            and hugepage residency against the contiguous ideal")
      Term.(const run_layout $ tag $ layout_keys $ key_len $ entropy $ fill)
  in
  let journal_cmd =
    let path =
      Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Journal file (pkbench snapshot --journal-out).")
    in
    let limit =
      Arg.(value & opt int 64 & info [ "limit" ] ~docv:"N" ~doc:"Records to print (default 64).")
    in
    Cmd.v
      (Cmd.info "journal"
         ~doc:
           "print a write-ahead operation journal record by record, marking uncommitted \
            records recovery would discard")
      Term.(const run_journal $ path $ limit)
  in
  let info =
    Cmd.info "pkdump" ~version:"1.0.0"
      ~doc:"build one partial-key (or baseline) index and report structure and cache behaviour"
  in
  exit (Cmd.eval (Cmd.group ~default:term info [ trace_cmd; layout_cmd; journal_cmd ]))
