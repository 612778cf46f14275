(* pklint rule tests: each fixture is compiled with [ocamlc -bin-annot]
   into a fresh temp directory at test time, loaded through the real
   cmt driver, and checked for exact finding counts.  A stub module
   named [Mem] inside the fixtures is matched by the rules'
   dotted-suffix name resolution, exactly as the real [Pk_mem.Mem]
   is. *)

module Lint = Pk_lint

let fixture_counter = ref 0

(* Compile [src] as a standalone unit; return the temp dir to load. *)
let compile_fixture src =
  incr fixture_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pklint_fix_%d_%d" (Unix.getpid ()) !fixture_counter)
  in
  Unix.mkdir dir 0o755;
  let ml = Filename.concat dir "fixture.ml" in
  let oc = open_out ml in
  output_string oc src;
  close_out oc;
  let cmd =
    Printf.sprintf "cd %s && ocamlc -c -bin-annot -w -a fixture.ml 2>fixture.err"
      (Filename.quote dir)
  in
  if Sys.command cmd <> 0 then begin
    let ic = open_in (Filename.concat dir "fixture.err") in
    let n = in_channel_length ic in
    let err = really_input_string ic n in
    close_in ic;
    Alcotest.failf "fixture failed to compile:\n%s\n%s" src err
  end;
  dir

(* Findings of one [rule] (scoped everywhere) over [src]. *)
let run_rule rule src =
  let dir = compile_fixture src in
  let cmts = Lint.Driver.load_units [ dir ] in
  Alcotest.(check int) "one unit loaded" 1 (List.length cmts);
  Lint.Registry.run [ rule ~scope:Lint.Rule.everywhere ] cmts

let count rule src = List.length (run_rule rule src)

let check_count name rule ~expect src = Alcotest.(check int) name expect (count rule src)

(* {2 no-poly-compare} *)

let test_poly_compare () =
  check_count "string = flagged" Lint.Rule_poly_compare.rule ~expect:1
    "let f (a : string) b = a = b";
  check_count "compare at bytes flagged" Lint.Rule_poly_compare.rule ~expect:1
    "let f (a : bytes) b = compare a b";
  check_count "int = clean" Lint.Rule_poly_compare.rule ~expect:0 "let f (a : int) b = a = b";
  check_count "float = clean (specialised, no key bytes)" Lint.Rule_poly_compare.rule ~expect:0
    "let f (a : float) b = a = b";
  check_count "suppressed by allow" Lint.Rule_poly_compare.rule ~expect:0
    "let[@pklint.allow \"no-poly-compare\"] f (a : string) b = a = b";
  check_count "String.equal clean" Lint.Rule_poly_compare.rule ~expect:0
    "let f (a : string) b = String.equal a b"

(* {2 zero-alloc-hot} *)

let test_zero_alloc () =
  check_count "tuple in hot flagged" Lint.Rule_zero_alloc.rule ~expect:1
    "let[@pklint.hot] f x = (x, x + 1)";
  (* The outermost [fun] spine is the definition's own currying and is
     peeled; a closure created in the body is an allocation. *)
  check_count "closure in hot flagged" Lint.Rule_zero_alloc.rule ~expect:1
    "let[@pklint.hot] f x = let g y = x + y in g (g x)";
  check_count "allocating call in hot flagged" Lint.Rule_zero_alloc.rule ~expect:1
    "let[@pklint.hot] f x = Array.make x 0";
  check_count "int arithmetic clean" Lint.Rule_zero_alloc.rule ~expect:0
    "let[@pklint.hot] rec f x acc = if x <= 0 then acc else f (x - 1) (acc + x)";
  check_count "unmarked function not checked" Lint.Rule_zero_alloc.rule ~expect:0
    "let f x = (x, x)";
  check_count "cold escape suppresses" Lint.Rule_zero_alloc.rule ~expect:0
    "let[@pklint.hot] f x = if x < 0 then (invalid_arg (string_of_int x ^ \"!\") [@pklint.cold]) \
     else x * 2";
  (* Interprocedural: the callee's summary allocates, so the hot call
     site is an allocation site. *)
  check_count "allocating callee flagged at the call" Lint.Rule_zero_alloc.rule ~expect:1
    "let helper x = [ x ]\nlet[@pklint.hot] f x = helper x";
  check_count "non-allocating callee clean" Lint.Rule_zero_alloc.rule ~expect:0
    "let helper x = x + 1\nlet[@pklint.hot] f x = helper x";
  check_count "cold call site suppresses the callee summary" Lint.Rule_zero_alloc.rule ~expect:0
    "let helper x = [ x ]\nlet[@pklint.hot] f x = if x < 0 then ignore ((helper x) [@pklint.cold])";
  (* A callee that only allocates under its own [@pklint.cold] branch
     is safe to call hot. *)
  check_count "callee's cold branch does not poison its summary" Lint.Rule_zero_alloc.rule
    ~expect:0
    "let helper x = if x < 0 then ignore (([ x ]) [@pklint.cold])\n\
     let[@pklint.hot] f x = helper x"

(* {2 no-swallow} *)

let test_no_swallow () =
  check_count "catch-all try flagged" Lint.Rule_no_swallow.rule ~expect:1
    "let f g = try g () with _ -> 0";
  check_count "catch-all variable flagged" Lint.Rule_no_swallow.rule ~expect:1
    "let f g = try g () with _e -> 0";
  check_count "match-exception catch-all flagged" Lint.Rule_no_swallow.rule ~expect:1
    "let f g = match g () with x -> x | exception _ -> 0";
  check_count "specific exception clean" Lint.Rule_no_swallow.rule ~expect:0
    "let f g = try g () with Not_found -> 0";
  check_count "re-raising catch-all clean" Lint.Rule_no_swallow.rule ~expect:0
    "let f g = try g () with e -> print_newline (); raise e";
  check_count "suppressed on the handler arm" Lint.Rule_no_swallow.rule ~expect:0
    "let f g = try g () with _ -> 0 [@pklint.allow \"no-swallow\"]"

(* {2 guarded-mutation} *)

let guarded_prelude =
  "module Mem = struct\n\
  \  let write_u8 _r _off _v = ()\n\
  \  let guard _r f = f ()\n\
   end\n"

let test_guarded_mutation () =
  check_count "direct and transitive writers flagged" Lint.Rule_guarded_mutation.rule ~expect:2
    (guarded_prelude ^ "let set r o v = Mem.write_u8 r o v\nlet outer r o v = set r o v");
  check_count "guard-establishing writer clean" Lint.Rule_guarded_mutation.rule ~expect:0
    (guarded_prelude ^ "let safe r o v = Mem.guard r (fun () -> Mem.write_u8 r o v)");
  check_count "audited escape suppressed" Lint.Rule_guarded_mutation.rule ~expect:0
    (guarded_prelude ^ "let[@pklint.guarded] prim r o v = Mem.write_u8 r o v");
  (* A caller of a guard-establishing function is not a writer: the
     callee's body runs journaled. *)
  check_count "caller of guarded function clean" Lint.Rule_guarded_mutation.rule ~expect:0
    (guarded_prelude
   ^ "let safe r o v = Mem.guard r (fun () -> Mem.write_u8 r o v)\n\
      let caller r o v = safe r o v")

(* {2 domain-shared-mutation} *)

let domain_prelude =
  "type cell = { mutable v : int }\nlet c = { v = 0 }\nlet m = Mutex.create ()\n"

let test_domain_shared_mutation () =
  check_count "unlocked write reachable from spawn flagged"
    Lint.Rule_domain_shared_mutation.rule ~expect:1
    (domain_prelude
   ^ "let bump () = c.v <- c.v + 1\nlet run () = ignore (Domain.spawn (fun () -> bump ()))");
  check_count "write in the spawn closure itself flagged" Lint.Rule_domain_shared_mutation.rule
    ~expect:1
    (domain_prelude ^ "let run () = ignore (Domain.spawn (fun () -> c.v <- c.v + 1))");
  (* Mutation self-test: the same write under the mutex is clean —
     deleting the [Mutex.protect] is exactly the seeded violation the
     previous fixture proves the rule catches. *)
  check_count "mutex-protected write clean" Lint.Rule_domain_shared_mutation.rule ~expect:0
    (domain_prelude
   ^ "let bump () = Mutex.protect m (fun () -> c.v <- c.v + 1)\n\
      let run () = ignore (Domain.spawn (fun () -> bump ()))");
  check_count "atomic update clean" Lint.Rule_domain_shared_mutation.rule ~expect:0
    "let a = Atomic.make 0\nlet run () = ignore (Domain.spawn (fun () -> Atomic.incr a))";
  check_count "domain-local fresh state clean" Lint.Rule_domain_shared_mutation.rule ~expect:0
    "type cell = { mutable v : int }\n\
     let run () = ignore (Domain.spawn (fun () -> let c = { v = 0 } in c.v <- 1; c.v))";
  check_count "audited primitive suppressed" Lint.Rule_domain_shared_mutation.rule ~expect:0
    (domain_prelude
   ^ "let[@pklint.guarded] bump () = c.v <- c.v + 1\n\
      let run () = ignore (Domain.spawn (fun () -> bump ()))");
  check_count "per-write allow suppressed" Lint.Rule_domain_shared_mutation.rule ~expect:0
    (domain_prelude
   ^ "let bump () = (c.v <- c.v + 1) [@pklint.allow \"domain-shared-mutation\"]\n\
      let run () = ignore (Domain.spawn (fun () -> bump ()))");
  check_count "not reachable from any spawn: out of scope" Lint.Rule_domain_shared_mutation.rule
    ~expect:0
    (domain_prelude ^ "let bump () = c.v <- c.v + 1")

(* {2 seqlock-protocol} *)

let seq_prelude =
  "type ops = {\n\
  \  snapshot : unit -> int;\n\
  \  version : unit -> int;\n\
  \  lookup : int -> int;\n\
  \  validated : int -> bool;\n\
   }\n"

let test_seqlock () =
  check_count "validated optimistic read clean" Lint.Rule_seqlock.rule ~expect:0
    (seq_prelude
   ^ "let read (t : ops) k =\n\
      \  let v = t.version () in\n\
      \  let r = t.lookup k in\n\
      \  if t.validated v then Some r else None");
  (* Mutation self-test: same read with the validation dropped — the
     seeded skipped-revalidation violation. *)
  check_count "read without validation flagged" Lint.Rule_seqlock.rule ~expect:1
    (seq_prelude ^ "let read (t : ops) k =\n  let _ = t.version () in\n  t.lookup k");
  check_count "retry without re-pin flagged" Lint.Rule_seqlock.rule ~expect:1
    (seq_prelude
   ^ "let rec read (t : ops) k =\n\
      \  let v = t.version () in\n\
      \  let r = t.lookup k in\n\
      \  if t.validated v then r else read t k");
  check_count "retry after re-pin clean" Lint.Rule_seqlock.rule ~expect:0
    (seq_prelude
   ^ "let rec read (t : ops) k =\n\
      \  let v = t.version () in\n\
      \  let r = t.lookup k in\n\
      \  if t.validated v then r else (ignore (t.snapshot ()); read t k)");
  check_count "validate with neither pin nor version fetch flagged" Lint.Rule_seqlock.rule
    ~expect:1
    (seq_prelude ^ "let check (u : ops) = u.validated 0");
  check_count "write inside an open version-bump window flagged" Lint.Rule_seqlock.rule ~expect:1
    "module Mem = struct let write_u8 _r _o _v = () end\n\
     type s = { ver : int Atomic.t }\n\
     let bump (t : s) r =\n\
     \  Atomic.incr t.ver;\n\
     \  Mem.write_u8 r 0 1;\n\
     \  Atomic.incr t.ver";
  check_count "write before the bump window clean" Lint.Rule_seqlock.rule ~expect:0
    "module Mem = struct let write_u8 _r _o _v = () end\n\
     type s = { ver : int Atomic.t }\n\
     let bump (t : s) r =\n\
     \  Mem.write_u8 r 0 1;\n\
     \  Atomic.incr t.ver;\n\
     \  Atomic.incr t.ver";
  check_count "suppressed by allow" Lint.Rule_seqlock.rule ~expect:0
    (seq_prelude
   ^ "let[@pklint.allow \"seqlock-protocol\"] read (t : ops) k =\n\
      \  let _ = t.version () in\n\
      \  t.lookup k")

(* {2 lock-lattice} *)

let lat_prelude =
  "type shard = { lock : Mutex.t }\ntype eng = { shards : shard array; pin_lock : Mutex.t }\n"

let test_lock_lattice () =
  check_count "ascending shards then pin clean" Lint.Rule_lock_lattice.rule ~expect:0
    (lat_prelude
   ^ "let good (e : eng) =\n\
      \  Mutex.protect e.shards.(0).lock (fun () ->\n\
      \      Mutex.protect e.shards.(1).lock (fun () ->\n\
      \          Mutex.protect e.pin_lock (fun () -> ())))");
  (* Mutation self-test: swapping pin and shard acquisition order is
     the seeded inversion. *)
  check_count "pin before shard flagged" Lint.Rule_lock_lattice.rule ~expect:1
    (lat_prelude
   ^ "let bad (e : eng) =\n\
      \  Mutex.protect e.pin_lock (fun () -> Mutex.protect e.shards.(1).lock (fun () -> ()))");
  check_count "descending shard order flagged" Lint.Rule_lock_lattice.rule ~expect:1
    (lat_prelude
   ^ "let bad (e : eng) =\n\
      \  Mutex.protect e.shards.(2).lock (fun () -> Mutex.protect e.shards.(1).lock (fun () -> \
      ()))");
  check_count "same shard re-acquired flagged" Lint.Rule_lock_lattice.rule ~expect:1
    (lat_prelude
   ^ "let bad (e : eng) =\n\
      \  Mutex.protect e.shards.(0).lock (fun () -> Mutex.protect e.shards.(0).lock (fun () -> \
      ()))");
  check_count "inversion through a callee flagged" Lint.Rule_lock_lattice.rule ~expect:1
    (lat_prelude
   ^ "let with_shard (e : eng) f = Mutex.protect e.shards.(0).lock f\n\
      let bad (e : eng) = Mutex.protect e.pin_lock (fun () -> with_shard e (fun () -> ()))");
  check_count "stored closure starts with an empty held stack" Lint.Rule_lock_lattice.rule
    ~expect:0
    (lat_prelude
   ^ "let ok (e : eng) =\n\
      \  Mutex.protect e.pin_lock (fun () ->\n\
      \      let later () = Mutex.protect e.shards.(0).lock (fun () -> ()) in\n\
      \      later)");
  check_count "suppressed by allow" Lint.Rule_lock_lattice.rule ~expect:0
    (lat_prelude
   ^ "let[@pklint.allow \"lock-lattice\"] waived (e : eng) =\n\
      \  Mutex.protect e.pin_lock (fun () -> Mutex.protect e.shards.(1).lock (fun () -> ()))")

(* {2 Baseline and output} *)

let test_baseline () =
  let findings =
    run_rule Lint.Rule_poly_compare.rule "let f (a : string) b = a = b\nlet g (a : bytes) b = a = b"
  in
  Alcotest.(check int) "two findings" 2 (List.length findings);
  let keys = List.map Lint.Finding.key findings in
  let fresh, baselined, stale = Lint.Baseline.apply [ List.hd keys ] findings in
  Alcotest.(check int) "one fresh" 1 (List.length fresh);
  Alcotest.(check int) "one baselined" 1 (List.length baselined);
  Alcotest.(check int) "no stale" 0 (List.length stale);
  let _, _, stale = Lint.Baseline.apply [ "no-such-rule\tno.ml\tnope" ] findings in
  Alcotest.(check int) "unmatched key is stale" 1 (List.length stale)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  go 0

let test_json () =
  let findings = run_rule Lint.Rule_poly_compare.rule "let f (a : string) b = a = b" in
  let o =
    { Lint.Driver.findings; baselined = []; stale = [ "k\t1" ]; units = 1 }
  in
  let json = Format.asprintf "%a" Lint.Driver.render_json o in
  List.iter
    (fun needle -> Alcotest.(check bool) ("json has " ^ needle) true (contains ~needle json))
    [
      "\"units\": 1";
      "\"findings\": [";
      "\"rule\":\"no-poly-compare\"";
      "\"file\":\"fixture.ml\"";
      "\"name\":\"Fixture.f\"";
      "\"stale_baseline\": [\"k\\t1\"]";
    ];
  Alcotest.(check string) "escaping" "a\\\"b\\\\c\\n" (Lint.Finding.json_escape "a\"b\\c\n")

let test_sarif () =
  let findings = run_rule Lint.Rule_poly_compare.rule "let f (a : string) b = a = b" in
  let o = { Lint.Driver.findings; baselined = []; stale = []; units = 1 } in
  let sarif = Format.asprintf "%a" Lint.Driver.render_sarif o in
  List.iter
    (fun needle -> Alcotest.(check bool) ("sarif has " ^ needle) true (contains ~needle sarif))
    [
      "\"version\": \"2.1.0\"";
      "\"name\": \"pklint\"";
      "\"ruleId\":\"no-poly-compare\"";
      "\"uri\":\"fixture.ml\"";
      "\"startLine\":1";
      "\"startColumn\":";
      "\"level\":\"error\"";
    ]

(* The repository itself must lint clean against the committed
   baseline (same gate as `dune build @lint`, minus staleness of the
   build tree: we only run it when the cmts are discoverable). *)
let test_repo_clean () =
  match Sys.getenv_opt "PKLINT_REPO_ROOT" with
  | None -> ()
  | Some root ->
      Sys.chdir root;
      let baseline = Lint.Baseline.load "pklint.baseline" in
      let o = Lint.Driver.analyse ~baseline [ "lib"; "bin"; "examples" ] in
      Alcotest.(check int) "no fresh findings" 0 (List.length o.Lint.Driver.findings);
      Alcotest.(check int) "no stale baseline entries" 0 (List.length o.Lint.Driver.stale)

let () =
  Alcotest.run "pk_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "no-poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "zero-alloc-hot" `Quick test_zero_alloc;
          Alcotest.test_case "no-swallow" `Quick test_no_swallow;
          Alcotest.test_case "guarded-mutation" `Quick test_guarded_mutation;
          Alcotest.test_case "domain-shared-mutation" `Quick test_domain_shared_mutation;
          Alcotest.test_case "seqlock-protocol" `Quick test_seqlock;
          Alcotest.test_case "lock-lattice" `Quick test_lock_lattice;
        ] );
      ( "driver",
        [
          Alcotest.test_case "baseline" `Quick test_baseline;
          Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "sarif" `Quick test_sarif;
          Alcotest.test_case "repo clean" `Quick test_repo_clean;
        ] );
    ]
