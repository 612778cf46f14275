(* Tests for the experiment registry, its scale variables and the
   Measure timing primitive. *)

module Experiment = Pk_harness.Experiment
module Measure = Pk_util.Measure

(* The registry is global; use unique ids per test. *)
let mk id = { Experiment.id; title = "t-" ^ id; paper_ref = "test"; run = (fun () -> ()) }

let test_register_and_find () =
  Experiment.register (mk "zz1");
  Experiment.register (mk "zz2");
  Alcotest.(check bool) "find exact" true (Experiment.find "zz1" <> None);
  Alcotest.(check bool) "find case-insensitive" true (Experiment.find "ZZ2" <> None);
  Alcotest.(check bool) "missing" true (Experiment.find "nope" = None);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Experiment.register (mk "zz1");
       false
     with Invalid_argument _ -> true)

let test_run_ids () =
  let hits = ref [] in
  Experiment.register
    { Experiment.id = "zz3"; title = "t"; paper_ref = "p"; run = (fun () -> hits := "zz3" :: !hits) };
  Experiment.register
    { Experiment.id = "zz4"; title = "t"; paper_ref = "p"; run = (fun () -> hits := "zz4" :: !hits) };
  Experiment.run_ids [ "zz4"; "zz3" ];
  Alcotest.(check (list string)) "ran in requested order" [ "zz3"; "zz4" ] !hits;
  Alcotest.(check bool) "unknown id fails" true
    (try
       Experiment.run_ids [ "does-not-exist" ];
       false
     with Failure _ -> true)

let test_scaling_env () =
  Unix.putenv "PK_KEYS" "12345";
  Alcotest.(check int) "PK_KEYS wins" 12345 (Experiment.scaled_keys 999);
  Unix.putenv "PK_KEYS" "";
  Unix.putenv "PK_SCALE" "2.0";
  Alcotest.(check int) "PK_SCALE multiplies" 2000 (Experiment.scaled_keys 1000);
  Unix.putenv "PK_SCALE" "0.001";
  Alcotest.(check int) "floor at 1000" 1000 (Experiment.scaled_keys 500_000);
  Unix.putenv "PK_SCALE" "";
  Unix.putenv "PK_LOOKUPS" "777";
  Alcotest.(check int) "PK_LOOKUPS wins" 777 (Experiment.scaled_lookups 10);
  Unix.putenv "PK_LOOKUPS" ""

let test_scaling_env_rejects () =
  List.iter
    (fun (var, read) ->
      List.iter
        (fun v ->
          Unix.putenv var v;
          let named =
            try
              ignore (read 1000 : int);
              false
            with Invalid_argument m -> String.starts_with ~prefix:var m
          in
          Unix.putenv var "";
          Alcotest.(check bool) (Printf.sprintf "%s=%S rejected" var v) true named)
        [ "20k"; "0"; "-1" ])
    [
      ("PK_KEYS", Experiment.scaled_keys);
      ("PK_LOOKUPS", Experiment.scaled_lookups);
      ("PK_SCALE", Experiment.scaled_keys);
    ]

let test_measure () =
  let counter = ref 0 in
  let spin iters () =
    for _ = 1 to iters do
      incr (Sys.opaque_identity counter)
    done
  in
  let samples = Measure.repeat ~n:7 (spin 2000) in
  Alcotest.(check int) "7 samples" 7 (Array.length samples);
  Alcotest.(check bool) "all positive" true (Array.for_all (fun ns -> ns > 0.0) samples);
  let min_ns f = Array.fold_left Float.min Float.infinity (Measure.repeat f) in
  let fast = min_ns (spin 1) and slow = min_ns (spin 2000) in
  Alcotest.(check bool) (Printf.sprintf "ordering (%.0f < %.0f)" fast slow) true (fast < slow);
  let prev = ref (Measure.now_ns ()) and ok = ref true in
  for _ = 1 to 10_000 do
    let t = Measure.now_ns () in
    if t < !prev then ok := false;
    prev := t
  done;
  Alcotest.(check bool) "now_ns non-decreasing" true !ok

let () =
  Alcotest.run "pk_harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "register/find" `Quick test_register_and_find;
          Alcotest.test_case "run_ids" `Quick test_run_ids;
          Alcotest.test_case "env scaling" `Quick test_scaling_env;
          Alcotest.test_case "env scaling rejects malformed" `Quick test_scaling_env_rejects;
        ] );
      ("measure", [ Alcotest.test_case "repeat and clock" `Quick test_measure ]);
    ]
