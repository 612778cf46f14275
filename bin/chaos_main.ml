(* Command-line chaos runner: seeded op streams against every registered
   scheme, cross-checked against a Map oracle, optionally with fault
   injection.  Schedules run one by one so a divergence never hides the
   rest of the matrix: every failure — wrong answer or any exception out
   of the index — is reported with its seed and shrunk op list, and the
   exit status is non-zero if ANY schedule failed.  CI runs a short
   fixed-seed classic pass and a 1000-schedule kill-and-recover pass
   ([-kind recover]). *)

module Chaos = Pk_chaos.Chaos
module Opstream = Chaos.Opstream

type schedule_kind = Stream of Opstream.mode | Parallel

let kind_of_string = function
  | "classic" -> Stream Opstream.Classic
  | "recover" -> Stream Opstream.Recover
  | "parallel" -> Parallel
  | s ->
      invalid_arg
        (Printf.sprintf "unknown schedule kind %S; valid kinds: classic, recover, parallel" s)

let () =
  let seeds = ref 50 in
  let base = ref 1 in
  let ops = ref 120 in
  let faults = ref true in
  let alphabet = ref 0 in
  let trees = ref "" in
  let kind = ref "classic" in
  let readers = ref 2 in
  let shards = ref 4 in
  let spec =
    [
      ("-seeds", Arg.Set_int seeds, "N  number of seeds per tag (default 50)");
      ("-base", Arg.Set_int base, "N  first seed (default 1)");
      ("-ops", Arg.Set_int ops, "N  operations per schedule (default 120)");
      ("-no-faults", Arg.Clear faults, "  pure differential mode, no injection");
      ("-alphabet", Arg.Set_int alphabet, "N  fix the per-byte alphabet (default seed-derived)");
      ( "-trees",
        Arg.Set_string trees,
        "LIST  comma-separated registry tags, e.g. pkB,B+/prefix,hybrid (default all)" );
      ("-kind", Arg.Set_string kind, "KIND  classic | recover | parallel (default classic)");
      ("-readers", Arg.Set_int readers, "N  reader domains per parallel schedule (default 2)");
      ("-shards", Arg.Set_int shards, "N  shards per parallel schedule (default 4)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "chaos_main [options]: differential chaos testing of the index structures";
  let usage_error msg =
    Printf.eprintf "chaos_main: %s\n" msg;
    exit 2
  in
  let kind = try kind_of_string !kind with Invalid_argument msg -> usage_error msg in
  let tags =
    let known = Opstream.tags () in
    if !trees = "" then known
    else
      List.map
        (fun t ->
          if List.mem t known then t
          else
            usage_error
              (Printf.sprintf "unknown scheme tag %S; valid tags: %s" t (String.concat ", " known)))
        (String.split_on_char ',' !trees)
  in
  let seed_list = List.init !seeds (fun i -> !base + i) in
  let plan = if !faults then fun ~seed -> Chaos.default_fault_plan ~seed else fun ~seed:_ -> [] in
  let alphabet = if !alphabet = 0 then None else Some !alphabet in
  let failures = ref 0 in
  let report msg =
    incr failures;
    Printf.eprintf "chaos FAILURE %s\n%!" msg
  in
  let restarts = ref 0 in
  let schedules, total =
    match kind with
    | Stream mode ->
        ( List.length seed_list * List.length tags,
          Opstream.suite ~faults:plan ?alphabet ~tags ~mode ~seeds:seed_list ~ops:!ops
            ~on_failure:report () )
    | Parallel ->
        ( List.length seed_list,
          List.fold_left
            (fun total seed ->
              match
                Chaos.run_parallel_schedule ~readers:!readers ~shards:!shards ~seed ~ops:!ops ()
              with
              | o, r ->
                  restarts := !restarts + r;
                  Chaos.add total o
              | exception e ->
                  report (Printf.sprintf "[parallel seed=%d] %s" seed (Printexc.to_string e));
                  total)
            Chaos.zero seed_list )
  in
  Printf.printf
    "chaos[%s]: %d schedules, %d ops, %d applied, %d injected, %d validations, %d failures%s\n"
    (match kind with
    | Stream Opstream.Classic -> "classic"
    | Stream Opstream.Recover -> "recover"
    | Parallel -> "parallel")
    schedules total.Chaos.ops total.Chaos.applied total.Chaos.injected total.Chaos.validations
    !failures
    (match kind with
    | Parallel -> Printf.sprintf ", %d reader restarts" !restarts
    | Stream _ -> "");
  if !failures > 0 then begin
    Printf.eprintf "chaos: %d of %d schedules failed; metrics at exit:\n" !failures schedules;
    prerr_string (Pk_obs.Obs.prometheus Pk_obs.Obs.Registry.default);
    exit 1
  end
