(* pkbench — command-line front end for the experiment suite.

   Examples:
     pkbench list
     pkbench run f9a f10b --keys 500000 --lookups 20000
     pkbench run            # everything at default scale *)

open Cmdliner

let register_all () =
  Pk_experiments.Exp_tables.register ();
  Pk_experiments.Exp_figures.register ();
  Pk_experiments.Exp_ablations.register ()

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

(* A comma-separated tag list in [--schemes] or [$PK_SCHEMES], every
   tag checked the same way; the empty string keeps the default (every
   registered scheme), as the experiments read it. *)
let scheme_list =
  Arg.conv'
    ( (fun tags ->
        if tags = "" then Ok []
        else
          let tags = String.split_on_char ',' tags in
          match List.iter (fun tag -> ignore (Pk_core.Index.Registry.get tag)) tags with
          | () -> Ok tags
          | exception Invalid_argument msg -> Error msg),
      fun ppf tags -> Format.pp_print_string ppf (String.concat "," tags) )

(* A machine preset name in [--machine] or [$PK_MACHINE], checked
   against the presets while parsing; the empty string keeps the
   default. *)
let machine_name =
  Arg.conv'
    ( (fun name ->
        if name = "" then Ok name
        else Result.map (fun _ -> name) (Pk_cachesim.Machine.of_name name)),
      Format.pp_print_string )

let list_cmd =
  let run () =
    register_all ();
    List.iter
      (fun (e : Pk_harness.Experiment.t) ->
        Printf.printf "%-6s %-55s %s\n" e.Pk_harness.Experiment.id
          e.Pk_harness.Experiment.title e.Pk_harness.Experiment.paper_ref)
      (Pk_harness.Experiment.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available experiments")
    Term.(const run $ const ())

let list_schemes_cmd =
  let run key_len =
    Printf.printf "%-14s %-9s %s\n" "tag" "structure" (Printf.sprintf "entry bytes (key_len=%d)" key_len);
    List.iter
      (fun (info : Pk_core.Index.Registry.info) ->
        Printf.printf "%-14s %-9s %s\n" info.Pk_core.Index.Registry.tag
          info.Pk_core.Index.Registry.structure
          (match info.Pk_core.Index.Registry.entry_bytes key_len with
          | Some b -> string_of_int b
          | None -> "variable"))
      (Pk_core.Index.Registry.all ())
  in
  let key_len_arg =
    Arg.(value & opt int 20 & info [ "key-len" ] ~docv:"N" ~doc:"Key length used to report per-entry sizes (default 20).")
  in
  Cmd.v
    (Cmd.info "list-schemes" ~doc:"List every registered index scheme with its structure and entry size")
    Term.(const run $ key_len_arg)

let keys_arg =
  Arg.(value & opt (some int) None & info [ "keys"; "k" ] ~docv:"N" ~doc:"Number of indexed keys (overrides the default; the paper used 1500000).")

let lookups_arg =
  Arg.(value & opt (some int) None & info [ "lookups"; "l" ] ~docv:"N" ~doc:"Number of measured lookups (the paper used 100000).")

let scale_arg =
  Arg.(value & opt (some float) None & info [ "scale" ] ~docv:"X" ~doc:"Multiply default sizes by X.")

let batch_arg =
  Arg.(value & opt (some int) None & info [ "batch"; "b" ] ~docv:"N" ~doc:"Batched-lookup group size for a9 (replaces the default {1,8,64,512} sweep).")

let fill_arg =
  Arg.(value & opt (some float) None & info [ "fill" ] ~docv:"F" ~doc:"Bulk-load fill factor for a9, clamped to [0.5, 1.0] (default 1.0).")

let schemes_arg =
  Arg.(
    value
    & opt (some scheme_list) None
    & info [ "schemes" ] ~env:(Cmd.Env.info "PK_SCHEMES") ~docv:"TAGS"
        ~doc:
          "Comma-separated registry scheme tags for a9 (see list-schemes; default: every \
           registered scheme).  An unknown tag, here or in $(env), is a usage error.")

let machine_arg =
  Arg.(
    value
    & opt (some machine_name) None
    & info [ "machine" ] ~env:(Cmd.Env.info "PK_MACHINE") ~docv:"NAME"
        ~doc:
          "Simulated machine preset: ultra30 (default), ultra60, pentium3, pentium3e or modern \
           (3-level hierarchy).  a10 sweeps its own preset list unless this is given.  An \
           unknown name, here or in $(env), is a usage error.")

let ids_arg = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the run, print the observability registry (Prometheus text exposition: \
           per-index deref/visit counters and per-op deref histograms) and write METRICS.json.")

let run_cmd =
  let run keys lookups scale batch fill schemes machine metrics ids =
    Option.iter (fun v -> Unix.putenv "PK_KEYS" (string_of_int v)) keys;
    Option.iter (fun v -> Unix.putenv "PK_LOOKUPS" (string_of_int v)) lookups;
    Option.iter (fun v -> Unix.putenv "PK_SCALE" (string_of_float v)) scale;
    Option.iter (fun v -> Unix.putenv "PK_BATCH" (string_of_int v)) batch;
    Option.iter (fun v -> Unix.putenv "PK_FILL" (string_of_float v)) fill;
    Option.iter (fun v -> Unix.putenv "PK_SCHEMES" (String.concat "," v)) schemes;
    Option.iter (fun v -> Unix.putenv "PK_MACHINE" v) machine;
    (* Wall-clock runs measure the paper's layout story; keep the
       undo-journal byte copies out of the hot path. *)
    Pk_fault.Fault.set_unwind false;
    register_all ();
    Pk_harness.Experiment.run_ids ids;
    if metrics then begin
      print_newline ();
      print_string (Pk_obs.Obs.prometheus Pk_obs.Obs.Registry.default);
      Pk_harness.Metrics_out.write_metrics Pk_obs.Obs.Registry.default
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments (all tables/figures of the paper plus ablations)")
    Term.(
      const run $ keys_arg $ lookups_arg $ scale_arg $ batch_arg $ fill_arg $ schemes_arg
      $ machine_arg $ metrics_arg $ ids_arg)

(* {2 snapshot subcommand} — durability + snapshot-read workload:
   journaled bulk load, a pinned epoch probed at full speed while a
   writer thread streams batched inserts, then a kill-and-recover of
   the final journal. *)

module Journal = Pk_journal.Journal
module Index = Pk_core.Index
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Prng = Pk_util.Prng
module Record_store = Pk_records.Record_store
module Tables = Pk_util.Tables
module Measure = Pk_util.Measure

let snapshot_cmd =
  let run tag keys key_len batches batch_size seconds journal_out metrics =
    Pk_fault.Fault.set_unwind false;
    let mem = Pk_mem.Mem.create () in
    let records = Record_store.create mem in
    let ix = Index.Registry.build ~key_len tag mem records in
    let journal = Journal.create () in
    let jx = Index.journaled journal records ix in
    let rng = Prng.create 1L in
    let pool = Keygen.uniform ~rng ~key_len ~alphabet:16 (keys + (batches * batch_size)) in
    let seed = Array.sub pool 0 keys in
    Array.sort Key.compare seed;
    let (), load_s =
      Measure.time (fun () ->
          jx.Index.of_sorted ~fill:1.0
            (Array.map (fun k -> (k, Record_store.insert records ~key:k ~payload:Bytes.empty)) seed))
    in
    Printf.printf "index           %s\n" ix.Index.tag;
    Printf.printf "bulk load       %s keys in %.2fs (journaled)\n" (Tables.fmt_int keys) load_s;
    (* Pin the epoch, then race a writer thread against snapshot reads. *)
    let snap = ix.Index.snapshot () in
    let frozen_count = snap.Index.count () in
    let writer_done = Atomic.make false in
    let writer =
      Thread.create
        (fun () ->
          for b = 0 to batches - 1 do
            let fresh = Array.sub pool (keys + (b * batch_size)) batch_size in
            let rids =
              Array.map
                (fun k -> Record_store.insert records ~key:k ~payload:Bytes.empty)
                fresh
            in
            ignore (jx.Index.insert_batch fresh ~rids);
            Thread.yield ()
          done;
          Atomic.set writer_done true)
        ()
    in
    let m = 1024 in
    let probes = Array.init m (fun i -> seed.(i * 31 mod keys)) in
    let out = Array.make m (-1) in
    let sweeps = ref 0 in
    let (), read_s =
      Measure.time (fun () ->
          let deadline = Measure.now_ns () + int_of_float (seconds *. 1e9) in
          while (not (Atomic.get writer_done)) || Measure.now_ns () < deadline do
            snap.Index.lookup_into probes out;
            incr sweeps;
            Thread.yield ()
          done)
    in
    Thread.join writer;
    let n_reads = !sweeps * m in
    Printf.printf "snapshot reads  %s lookups in %.2fs (%s/s) against the pinned epoch\n"
      (Tables.fmt_int n_reads) read_s
      (Tables.fmt_int (int_of_float (float_of_int n_reads /. read_s)));
    Printf.printf "writer          %s keys in %d batches behind the snapshot\n"
      (Tables.fmt_int (batches * batch_size))
      batches;
    if snap.Index.count () <> frozen_count then failwith "snapshot diverged";
    Printf.printf "epoch           pinned at %s keys; live index now %s keys\n"
      (Tables.fmt_int frozen_count)
      (Tables.fmt_int (ix.Index.count ()));
    snap.Index.release ();
    Printf.printf "journal         %s, %s records, %d commits\n"
      (Tables.fmt_bytes (Journal.byte_size journal))
      (Tables.fmt_int (Journal.record_count journal))
      (Journal.commit_count journal);
    Option.iter
      (fun path ->
        Journal.save journal path;
        Printf.printf "journal saved   %s (inspect with: pkdump journal %s)\n" path path)
      journal_out;
    (* Kill-and-recover from the journal bytes alone. *)
    let (_mem2, _records2, recovered, st), rec_s =
      Measure.time (fun () ->
          Index.recover ~key_len ~tag (Journal.of_bytes (Journal.to_bytes journal)))
    in
    Printf.printf
      "recovery        %s keys in %.2fs: %d batches, %d ops (%d bulk + %d tail), %d \
       uncommitted skipped, %d torn bytes dropped\n"
      (Tables.fmt_int (recovered.Index.count ()))
      rec_s st.Pk_core.Engine.rec_batches st.Pk_core.Engine.rec_ops
      st.Pk_core.Engine.rec_bulk st.Pk_core.Engine.rec_tail st.Pk_core.Engine.rec_skipped
      st.Pk_core.Engine.rec_torn;
    if recovered.Index.count () <> ix.Index.count () then failwith "recovery diverged";
    if metrics then begin
      print_newline ();
      print_string (Pk_obs.Obs.prometheus Pk_obs.Obs.Registry.default);
      Pk_harness.Metrics_out.write_metrics Pk_obs.Obs.Registry.default
    end
  in
  let tag_arg =
    Arg.(value & opt scheme_tag "pkB" & info [ "tag" ] ~docv:"TAG" ~doc:"Registry scheme tag (see list-schemes).")
  in
  let keys_arg =
    Arg.(value & opt int 200_000 & info [ "keys"; "k" ] ~docv:"N" ~doc:"Bulk-loaded keys.")
  in
  let key_len_arg =
    Arg.(value & opt int 12 & info [ "key-len" ] ~docv:"B" ~doc:"Key length in bytes.")
  in
  let batches_arg =
    Arg.(value & opt int 64 & info [ "batches" ] ~docv:"N" ~doc:"Writer-thread insert batches.")
  in
  let batch_size_arg =
    Arg.(value & opt int 512 & info [ "batch" ] ~docv:"N" ~doc:"Keys per writer batch.")
  in
  let seconds_arg =
    Arg.(value & opt float 1.0 & info [ "seconds" ] ~docv:"S" ~doc:"Minimum snapshot-read measurement window.")
  in
  let journal_out_arg =
    Arg.(value & opt (some string) None & info [ "journal-out" ] ~docv:"FILE" ~doc:"Save the journal for pkdump inspection.")
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "journaled load, snapshot reads against a writer thread, then kill-and-recover from \
          the journal")
    Term.(
      const run $ tag_arg $ keys_arg $ key_len_arg $ batches_arg $ batch_size_arg
      $ seconds_arg $ journal_out_arg $ metrics_arg)

let () =
  let doc = "benchmarks for the pkT/pkB partial-key index reproduction (SIGMOD 2001)" in
  let info = Cmd.info "pkbench" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; list_schemes_cmd; run_cmd; snapshot_cmd ]))
