(* Chaos + differential acceptance suite over the one op-stream oracle
   ({!Pk_chaos.Chaos.Opstream}).

   The headline runs drive >= 1000 seeded op streams each — classic and
   kill-and-recover, every registered scheme — with seed-derived fault
   plans armed, cross-checking every operation against the Map oracle
   and deep-validating after every injected fault.  Any divergence
   fails with its seed and shrunk op list. *)

module Chaos = Pk_chaos.Chaos
module Opstream = Chaos.Opstream
module Index = Pk_core.Index

let seeds ~base n = List.init n (fun i -> base + i)
let armed ~seed = Chaos.default_fault_plan ~seed
let suite = Opstream.suite ~on_failure:Alcotest.fail

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Fmt.pf ppf "{ops=%d; applied=%d; injected=%d; validations=%d}" o.Chaos.ops o.Chaos.applied
        o.Chaos.injected o.Chaos.validations)
    ( = )

let result = Alcotest.(result outcome (pair int string))

(* [n] seeds x 14 registry tags, every schedule fault-armed. *)
let acceptance ~mode ~seeds:n ~ops =
  let tags = Index.Registry.tags () in
  Alcotest.(check bool) "full scheme registry" true (List.length tags >= 14);
  let n_schedules = n * List.length tags in
  Alcotest.(check bool) "1000+ schedules" true (n_schedules >= 1000);
  let o = suite ~faults:armed ~mode ~seeds:(seeds ~base:1 n) ~ops () in
  Alcotest.(check bool) "fault plans actually injected" true (o.Chaos.injected > 100);
  Alcotest.(check bool) "most operations still applied" true (o.Chaos.applied > o.Chaos.injected);
  (n_schedules, o)

let test_fault_acceptance () =
  (* 72 x 14 = 1008 schedules *)
  let n, o = acceptance ~mode:Opstream.Classic ~seeds:72 ~ops:120 in
  Alcotest.(check int) "every op of every schedule attempted" (n * 120) o.Chaos.ops;
  (* one final sweep per schedule, plus one per injection *)
  Alcotest.(check int) "validations" (n + o.Chaos.injected) o.Chaos.validations

(* Pure differential mode: no faults, denser schedules. *)
let test_differential_no_faults () =
  let o = suite ~mode:Opstream.Classic ~seeds:(seeds ~base:10_000 20) ~ops:250 () in
  Alcotest.(check int) "no injections without a plan" 0 o.Chaos.injected;
  Alcotest.(check bool) "applied" true (o.Chaos.applied > 0)

(* The prefix B-tree under full byte-entropy keys (every byte value
   equally likely), where prefix compression has the least structure
   to lean on. *)
let test_prefix_byte_entropy () =
  let o =
    suite ~tags:[ "B+/prefix" ] ~alphabet:256 ~mode:Opstream.Classic
      ~seeds:(seeds ~base:20_000 60) ~ops:250 ()
  in
  Alcotest.(check int) "60 schedules" (60 * 250) o.Chaos.ops;
  Alcotest.(check int) "pure differential" 0 o.Chaos.injected;
  Alcotest.(check bool) "applied" true (o.Chaos.applied > 0)

(* Streams on which the chaos harness found real latent bugs, replayed
   from literal data (see Chaos_regressions) with the outcome they had
   when the bugs were fixed. *)
let test_chaos_found_regressions () =
  List.iter
    (fun (tag, faults, sc, want) ->
      Alcotest.check result
        (Printf.sprintf "%s seed %d" tag sc.Opstream.seed)
        (Ok want)
        (Opstream.run ~faults ~mode:Opstream.Classic ~build:(Opstream.registry tag sc) sc))
    Chaos_regressions.all

(* Failures must replay: the same scenario and plan produce the
   identical outcome, faults included. *)
let replay_determinism ~mode ~tag ~seed ~ops () =
  let sc = Opstream.generate ~seed ~ops () in
  let run () = Opstream.run ~faults:(armed ~seed) ~mode ~build:(Opstream.registry tag sc) sc in
  let a = run () in
  Alcotest.(check bool) "passes" true (Result.is_ok a);
  Alcotest.check result "identical outcome on replay" a (run ())

(* Bit granularity and l = 0 have no registry tag, so they run as
   direct Index.make builds under the same interpreter and fault plans. *)
let test_partial_key_corners () =
  let corners = [ "pk-bit-l0"; "pk-bit-l2"; "pk-byte-l0" ] in
  let total = ref Chaos.zero in
  List.iter
    (fun seed ->
      let sc = Opstream.generate ~seed ~ops:150 () in
      let matrix = Support.scheme_matrix ~key_len:sc.Opstream.config.key_len in
      List.iter
        (fun structure ->
          List.iter
            (fun name ->
              let build =
                Index.make ~node_bytes:sc.config.node_bytes structure (List.assoc name matrix)
              in
              let label = Printf.sprintf "%s/%s" (Index.structure_tag structure) name in
              let faults = armed ~seed in
              match Opstream.check ~faults ~mode:Opstream.Classic ~build ~label sc with
              | Ok o -> total := Chaos.add !total o
              | Error report -> Alcotest.fail report)
            corners)
        [ Index.T_tree; Index.B_tree ])
    (seeds ~base:30_000 24);
  Alcotest.(check bool) "faults injected" true (!total.Chaos.injected > 0)

(* An exception other than Failure escaping the index is a divergence
   with a shrunk replay, not a crash of the runner. *)
let test_escaping_exception () =
  let sc = Opstream.generate ~seed:5 ~ops:200 () in
  let build mem records =
    let ix = Opstream.registry "B-indirect" sc mem records in
    { ix with Index.lookup = (fun _ -> invalid_arg "broken lookup") }
  in
  match Opstream.check ~mode:Opstream.Classic ~build ~label:"raising" sc with
  | Ok _ -> Alcotest.fail "a raising lookup slipped through"
  | Error report ->
      let has sub =
        let n = String.length sub in
        Seq.exists
          (fun i -> String.equal (String.sub report i n) sub)
          (Seq.init (String.length report - n + 1) Fun.id)
      in
      Alcotest.(check bool) "names the exception" true (has "Invalid_argument");
      Alcotest.(check bool) "carries the seed" true (has "seed=5");
      Alcotest.(check bool) "carries the shrunk op list" true (has "shrunk replay")

let test_recover_acceptance () =
  (* 112 x 14 = 1568 schedules, as chaos_main -kind recover runs in CI *)
  let n, o = acceptance ~mode:Opstream.Recover ~seeds:112 ~ops:80 in
  (* every schedule deep-validates its recovery and sweeps the model *)
  Alcotest.(check bool) "recovery validations" true (o.Chaos.validations >= 2 * n)

(* Per-scheme differential cases: no faults, 300-op streams. *)
let scheme_case tag =
  Alcotest.test_case tag `Quick (fun () ->
      ignore (suite ~tags:[ tag ] ~mode:Opstream.Classic ~seeds:[ 2; 7 ] ~ops:300 ()))

(* Shrinker self-test: a deliberately broken index must be caught in
   both modes and the counterexample must shrink to a handful of ops.
   The breakage is value-dependent (lookups lie for keys whose first
   byte is >= 128), so most of the stream is irrelevant and must go. *)
let test_broken_variant_caught () =
  let sc = Opstream.generate ~seed:2 ~ops:300 () in
  let sane = Opstream.registry "B-indirect" sc in
  let broken mem records =
    let ix = sane mem records in
    {
      ix with
      Index.lookup =
        (fun k -> if Char.code (Bytes.get k 0) >= 128 then None else ix.Index.lookup k);
    }
  in
  List.iter
    (fun mode ->
      if Result.is_ok (Opstream.run ~mode ~build:broken sc) then
        Alcotest.fail "broken lookup variant slipped through";
      let small = Opstream.shrink ~mode ~build:broken sc in
      (match Opstream.run ~mode ~build:broken small with
      | Ok _ -> Alcotest.fail "shrunk counterexample does not replay"
      | Error (op, msg) ->
          Printf.printf "shrunk broken-variant counterexample (op %d: %s): %s\n" op msg
            (Opstream.to_string small));
      if List.length small.Opstream.ops > 4 then
        Alcotest.failf "shrinker left %d ops (expected <= 4)" (List.length small.ops);
      (* The sane index passes the very stream that convicts the broken one. *)
      match Opstream.run ~mode ~build:sane sc with
      | Ok _ -> ()
      | Error (_, msg) -> Alcotest.failf "sane index fails the same stream: %s" msg)
    [ Opstream.Classic; Opstream.Recover ]

let () =
  Alcotest.run "pk_chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "1000-schedule fault acceptance" `Slow test_fault_acceptance;
          Alcotest.test_case "differential, no faults" `Quick test_differential_no_faults;
          Alcotest.test_case "prefix under byte entropy" `Quick test_prefix_byte_entropy;
          Alcotest.test_case "chaos-found regressions" `Quick test_chaos_found_regressions;
          Alcotest.test_case "replay determinism" `Quick
            (replay_determinism ~mode:Opstream.Classic ~tag:"pkB" ~seed:77 ~ops:300);
          Alcotest.test_case "partial-key corners under faults" `Quick test_partial_key_corners;
          Alcotest.test_case "escaping exceptions are divergences" `Quick test_escaping_exception;
        ] );
      ( "recover",
        [
          Alcotest.test_case "1000-schedule kill-and-recover" `Slow test_recover_acceptance;
          Alcotest.test_case "replay determinism" `Quick
            (replay_determinism ~mode:Opstream.Recover ~tag:"pkB" ~seed:41 ~ops:200);
        ] );
      ("schemes", List.map scheme_case (Index.Registry.tags ()));
      ( "self-test",
        [
          Alcotest.test_case "broken variant is caught and shrunk" `Quick
            test_broken_variant_caught;
        ] );
    ]
