(* zero-alloc-hot: a function marked [@pklint.hot] is on a path whose
   steady state must not touch the OCaml heap — the batched lookup
   path, the undo log's append and the partial-key encoder
   (the contract test_batch asserts dynamically via [Gc.minor_words],
   but only on the schemes and inputs it runs).  The rule rejects every
   syntactically allocating expression in the marked function's body —
   closures, tuples, boxed constructors, records, arrays, lazy values,
   partial applications, and calls to known allocating stdlib
   functions — unless the expression (or an enclosing one) is marked
   [@pklint.cold], the explicit escape for error paths.

   Interprocedurally, a call to a repository function whose
   {!Callgraph} summary allocates on every resolution candidate
   ([s_allocates], computed outside [@pklint.cold] subtrees and
   raise-argument positions) is itself an allocation site: the hot
   path must either call allocation-free helpers or mark the call
   cold. *)

open Typedtree

let id = "zero-alloc-hot"

let check ~scope (g : Callgraph.t) =
  let findings = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      if scope n.Callgraph.src && n.Callgraph.hot && not (Helpers.allowed id n.Callgraph.allows)
      then begin
        let flag loc what =
          findings :=
            Finding.v ~rule:id ~file:n.Callgraph.src ~loc ~name:n.Callgraph.nid
              (Printf.sprintf
                 "%s in [@pklint.hot] function; a hot path must not allocate — \
                  restructure, or mark the expression [@pklint.cold] if it is an error path"
                 what)
            :: !findings
        in
        let scan it (e : expression) =
          if
            Helpers.is_cold e.exp_attributes
            || Helpers.allowed id (Helpers.allows e.exp_attributes)
          then ()
          else begin
            (match Callgraph.alloc_kind e with
            | Some what -> flag e.exp_loc what
            | None -> ());
            (match e.exp_desc with
            | Texp_apply (f0, args0) -> (
                let f, _ = Callgraph.flatten_apply f0 args0 in
                match Callgraph.head_name f with
                | Some name
                  when not (Callgraph.is_raise_name name) -> (
                    match Callgraph.resolve g ~unit_name:n.Callgraph.unit_name name with
                    | [] -> ()
                    | cands ->
                        if
                          List.for_all
                            (fun (m : Callgraph.node) ->
                              (Callgraph.summary g m.Callgraph.nid).Callgraph.s_allocates)
                            cands
                        then
                          flag e.exp_loc
                            (Printf.sprintf "call to allocating function (%s)"
                               (Helpers.last_component name)))
                | _ -> ())
            | _ -> ());
            (* One finding per allocation site is enough: do not descend
               into an already-flagged closure body. *)
            match e.exp_desc with
            | Texp_function _ -> ()
            | _ -> Tast_iterator.default_iterator.expr it e
          end
        in
        let it = { Tast_iterator.default_iterator with expr = scan } in
        (* The outermost [fun]/[function] spine is the definition's own
           currying, evaluated once at definition time — peel it and
           scan only the body the hot calls execute. *)
        let rec peel (e : expression) =
          match e.exp_desc with
          | Texp_function { cases; _ } -> List.iter (fun c -> peel c.c_rhs) cases
          | _ -> it.expr it e
        in
        peel n.Callgraph.vb.vb_expr
      end)
    (Callgraph.nodes g);
  List.rev !findings

let rule ~scope =
  Rule.graph ~id ~doc:"[@pklint.hot] functions must not contain allocating expressions" ~scope
    check
