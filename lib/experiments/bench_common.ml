(* Shared plumbing for the benchmark experiments. *)

module Tables = Pk_util.Tables
module Measure = Pk_util.Measure
module Key = Pk_keys.Key
module Keygen = Pk_keys.Keygen
module Mem = Pk_mem.Mem
module Cachesim = Pk_cachesim.Cachesim
module Machine = Pk_cachesim.Machine
module Layout = Pk_core.Layout
module Index = Pk_core.Index
module Hybrid = Pk_core.Hybrid
module Variants = Pk_core.Variants
module Partial_key = Pk_partialkey.Partial_key
module Workload = Pk_workload.Workload
module Distribution = Pk_workload.Distribution
module Experiment = Pk_harness.Experiment
module Json_out = Pk_harness.Json_out

let low_entropy = Keygen.paper_low (* alphabet 12 -> 3.6 bits/byte *)
let high_entropy = Keygen.paper_high (* alphabet 220 -> 7.8 bits/byte *)

let entropy_tag alphabet = Printf.sprintf "%.1f b/B" (Keygen.entropy_of_alphabet alphabet)

(* PK_MACHINE selects the simulated machine preset by name (e.g.
   "ultra60", "modern"); unknown names abort up front. *)
let machine_of_env () =
  match Sys.getenv_opt "PK_MACHINE" with
  | None | Some "" -> None
  | Some name -> (
      match Machine.by_name name with
      | Some m -> Some m
      | None ->
          invalid_arg
            (Printf.sprintf
               "unknown machine %S; valid: ultra30, ultra60, pentium3, pentium3e, modern" name))

(* A built scheme ready for measurement. *)
type built = {
  name : string;
  ix : Index.t;
  env : Workload.env;
  warm : Key.t array;
  probe : Key.t array;
}

let pow2_ceil n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

(* Build one dataset and load each requested scheme into its own index
   over the shared record heap. *)
let build_schemes ?machine ?tlb ~key_len ~alphabet ~n ~n_warm ~n_probe schemes =
  let machine =
    match machine with
    | Some m -> m
    | None -> Option.value (machine_of_env ()) ~default:Machine.ultra30
  in
  let env = Workload.make_env ~machine ?tlb () in
  let ds = Workload.make_dataset env ~key_len ~alphabet ~n () in
  let warm = Workload.probes ds ~seed:11 ~n:n_warm () in
  (* Disjoint steady-state probes, padded to a power of two by
     repeating from the start; every counter column is measured over
     this padded set, so changing it would change the figures. *)
  let all = Workload.probes ds ~seed:12 ~n:(n_warm + n_probe) () in
  let raw_probe = Array.sub all n_warm n_probe in
  let padded = pow2_ceil n_probe in
  let probe = Array.init padded (fun i -> raw_probe.(i mod n_probe)) in
  List.map
    (fun (name, structure, scheme) ->
      let ix = Index.make structure scheme env.Workload.mem env.Workload.records in
      Workload.load ds ix;
      { name; ix; env; warm; probe })
    schemes

(* {2 Registry-driven scheme selection}

   [Hybrid] and [Variants] register their schemes at module
   initialisation; referencing them here forces their linkage so every
   registry enumeration below sees the full tag set. *)

let ensure_registry () =
  Hybrid.ensure_registered ();
  Variants.ensure_registered ()

let registry_schemes () =
  ensure_registry ();
  Index.Registry.all ()

(* Resolve registry tags to (tag, env -> index) builders.  Unknown tags
   fail up front with the list of valid tags. *)
let builders_by_tag ?node_bytes ~key_len tags =
  ensure_registry ();
  List.map
    (fun tag ->
      let info = Index.Registry.get tag in
      ( tag,
        fun (env : Workload.env) ->
          info.Index.Registry.build ?node_bytes ~key_len env.Workload.mem env.Workload.records ))
    tags

let cache_stats b = Workload.measure_cache b.env b.ix ~warm:b.warm ~probes:b.probe

let time_schemes builts =
  List.map (fun b -> (b.name, Workload.wall_ns_per_op b.env b.ix ~probes:b.probe)) builts

let space_per_key b =
  float_of_int (b.ix.Index.space_bytes ()) /. float_of_int (b.ix.Index.count ())

let fmt_f ?(d = 2) v = Tables.fmt_float ~decimals:d v

(* Print a table; when PK_CSV_DIR is set, also drop it there as
   <name>.csv for external plotting. *)
let print_table ~name t =
  Tables.print t;
  match Sys.getenv_opt "PK_CSV_DIR" with
  | None | Some "" -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (Tables.render_csv t);
      close_out oc;
      Printf.printf "  (csv written to %s)\n" path

let shape_check label ok =
  Printf.printf "  shape %-58s %s\n" label (if ok then "[as in paper]" else "[DEVIATES]")
