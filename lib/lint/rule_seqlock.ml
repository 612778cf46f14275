(* seqlock-protocol: the sharded engine's optimistic readers follow a
   seqlock discipline — fetch the shard's version word (or take a
   pinned snapshot), descend the pinned epoch, then confirm the read
   with [validated] *on the same handle* before trusting the result;
   on failure, re-pin before retrying.  Writers bump the version word
   to odd, mutate only through [record_write] (which holds the pin
   lock), and bump back to even.  This rule checks that state machine
   per function body:

   - an optimistic read (a [lookup]/[lookup_into] field call on a
     handle whose version word was fetched) must be followed by a
     [validated] check on that handle before the scope ends;
   - a [validated] call needs a version fetch or pin on its handle —
     validating against a word fetched on a different handle checks
     nothing;
   - a restart (recursive retry after validation) must re-pin first;
   - between an odd version bump ([Atomic.incr/set] on a [ver]/
     [version] cell) and the closing even bump, heap writes must hold
     the pin lock (i.e. go through [record_write]), and the window
     must be closed before the scope ends.

   The walk is sequential in syntactic order (branches are walked in
   source order — a documented approximation that matches the
   retry-loop idiom), per-handle (handles are identifier roots of
   projection chains, followed through [let]/[match] aliases), and
   interprocedural through summaries: a callee that pins
   ([s_pins]) or fetches a version word ([s_reads_version]) applies
   those events to the handles its arguments root at.  Reads under a
   held mutex are exempt — that is the bounded locked fallback.
   Stored closures are fresh scopes; thunks passed to lockers and
   iterators run in place. *)

open Typedtree

let id = "seqlock-protocol"

type hstate = {
  mutable pinned : bool;
  mutable version : bool;
  mutable validated : bool;
  mutable repinned : bool;
  mutable dangling : Location.t option;
}

let rec cpat_vars : type k. k general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | Tpat_value v -> cpat_vars (v :> pattern)
  | Tpat_var (id, _) -> [ Ident.name id ]
  | Tpat_alias (q, id, _) -> Ident.name id :: cpat_vars q
  | Tpat_construct (_, _, ps, _) -> List.concat_map cpat_vars ps
  | Tpat_tuple ps -> List.concat_map cpat_vars ps
  | Tpat_or (a, b, _) -> cpat_vars a @ cpat_vars b
  | _ -> []

let check ~scope (g : Callgraph.t) =
  let open Callgraph in
  let findings = ref [] in
  List.iter
    (fun (n : node) ->
      if scope n.src && not (Helpers.allowed id n.allows) then begin
        let flag loc msg = findings := Finding.v ~rule:id ~file:n.src ~loc ~name:n.nid msg :: !findings in
        (* Per-scope state: handle table, lock depths, the open write
           window, and the local [let rec] names whose application is
           a retry. *)
        let handles = ref (Hashtbl.create 8) in
        let aliases = Hashtbl.create 8 in
        let mutex_depth = ref 0 in
        let pin_depth = ref 0 in
        let bump_open = ref None in
        let local_recs = ref [] in
        let state h =
          match Hashtbl.find_opt !handles h with
          | Some s -> s
          | None ->
              let s =
                { pinned = false; version = false; validated = false; repinned = false; dangling = None }
              in
              Hashtbl.add !handles h s;
              s
        in
        let resolve_alias h =
          let rec go seen h =
            if List.exists (String.equal h) seen then h
            else match Hashtbl.find_opt aliases h with Some h' -> go (h :: seen) h' | None -> h
          in
          go [] h
        in
        let root_of e = Option.map resolve_alias (handle_root e) in
        let scope_end () =
          Hashtbl.iter
            (fun _ s ->
              match s.dangling with
              | Some loc ->
                  flag loc
                    "optimistic read of version-protected shard state is never confirmed with \
                     [validated] on this handle before the scope ends"
              | None -> ())
            !handles;
          match !bump_open with
          | Some loc ->
              flag loc "seqlock write window opened (version bumped odd) but never closed in this scope"
          | None -> ()
        in
        (* Fresh handle scope for a stored closure body; aliases are
           inherited (the closure sees the enclosing bindings). *)
        let fresh_scope f =
          let saved_h = !handles and saved_b = !bump_open in
          handles := Hashtbl.create 8;
          bump_open := None;
          f ();
          scope_end ();
          handles := saved_h;
          bump_open := saved_b
        in
        let rec walk (e : expression) =
          match e.exp_desc with
          | Texp_ident _ | Texp_constant _ -> ()
          | Texp_let (rf, vbs, body) ->
              List.iter
                (fun vb ->
                  (match (vb.vb_pat.pat_desc, handle_root vb.vb_expr) with
                  | Tpat_var (bid, _), Some h -> Hashtbl.replace aliases (Ident.name bid) h
                  | _ -> ());
                  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                  (* Only [let rec] closures are loop candidates: calling a
                     plain let-bound helper (a stats hook, say) before the
                     re-pin is not a retry of the optimistic read. *)
                  | Tpat_var (bid, _), Texp_function _
                    when match rf with Asttypes.Recursive -> true | Asttypes.Nonrecursive -> false
                    ->
                      local_recs := Ident.name bid :: !local_recs;
                      fresh_scope (fun () -> walk_cases vb.vb_expr)
                  | _, Texp_function _ -> fresh_scope (fun () -> walk_cases vb.vb_expr)
                  | _ -> walk vb.vb_expr)
                vbs;
              walk body
          | Texp_function _ -> fresh_scope (fun () -> walk_cases e)
          | Texp_match (scrut, cases, _) ->
              walk scrut;
              (match root_of scrut with
              | Some h ->
                  List.iter
                    (fun c -> List.iter (fun v -> Hashtbl.replace aliases v h) (cpat_vars c.c_lhs))
                    cases
              | None -> ());
              List.iter
                (fun c ->
                  Option.iter walk c.c_guard;
                  walk c.c_rhs)
                cases
          | Texp_apply (f0, args0) -> apply e f0 args0
          | _ -> Tast_iterator.default_iterator.expr walk_it e
        and walk_cases (fn : expression) =
          match fn.exp_desc with
          | Texp_function { cases; _ } ->
              List.iter
                (fun c ->
                  Option.iter walk c.c_guard;
                  walk_cases c.c_rhs)
                cases
          | _ -> walk fn
        and walk_it =
          (* Trampoline for constructs without protocol relevance:
             default syntactic-order descent re-entering [walk]. *)
          { Tast_iterator.default_iterator with expr = (fun _ e -> walk e) }
        and walk_closure_in_place (fn : expression) =
          match fn.exp_desc with
          | Texp_function { cases; _ } ->
              List.iter
                (fun c ->
                  Option.iter walk c.c_guard;
                  walk_closure_in_place c.c_rhs)
                cases
          | _ -> walk fn
        and apply e f0 args0 =
          let f, args = flatten_apply f0 args0 in
          let walk_args () = List.iter (fun (_, a) -> Option.iter walk a) args in
          match f.exp_desc with
          | Texp_field (r, _, ld) -> (
              walk r;
              let h = root_of r in
              match (ld.Types.lbl_name, h) with
              | "snapshot", Some h ->
                  let s = state h in
                  s.pinned <- true;
                  s.repinned <- true;
                  walk_args ()
              | "version", Some h ->
                  let s = state h in
                  s.version <- true;
                  s.validated <- false;
                  walk_args ()
              | ("lookup" | "lookup_into"), Some h ->
                  let s = state h in
                  if !mutex_depth = 0 && s.version && not s.validated then
                    s.dangling <- Some e.exp_loc;
                  walk_args ()
              | "validated", h ->
                  (* The check confirms the pinned version word it is
                     given: root the event at the argument(s) as well as
                     the projection subject — [s.ix.Index.validated
                     rd.pins.(i)] validates reader handle [rd], not the
                     shard record it reads the comparator from. *)
                  let roots =
                    (match h with Some h -> [ h ] | None -> [])
                    @ List.filter_map (fun (_, a) -> Option.bind a root_of) args
                  in
                  (match roots with
                  | [] -> ()
                  | _ ->
                      if
                        not
                          (List.exists
                             (fun r ->
                               let s = state r in
                               s.pinned || s.version)
                             roots)
                      then
                        flag e.exp_loc
                          "[validated] check without a version fetch or pin on this handle — it \
                           confirms nothing about the epoch that was read"
                      else
                        (* Confirm only the handles that were actually
                           pinned / version-fetched: the comparator
                           record the check is projected from carries
                           no retry obligation of its own. *)
                        List.iter
                          (fun r ->
                            let s = state r in
                            if s.pinned || s.version then begin
                              s.validated <- true;
                              s.dangling <- None;
                              s.repinned <- false
                            end)
                          roots);
                  walk_args ()
              | _ ->
                  walk_args ())
          | Texp_ident (p, _, _) ->
              let name = Helpers.path_name p in
              let last = Helpers.last_component name in
              if
                is_atomic_name name
                && (String.equal last "incr" || String.equal last "set")
                && List.exists
                     (fun (_, a) -> match a with Some a -> is_version_cell a | None -> false)
                     args
              then begin
                (match !bump_open with
                | None -> bump_open := Some e.exp_loc
                | Some _ -> bump_open := None);
                walk_args ()
              end
              else begin
                let cands = resolve g ~unit_name:n.unit_name name in
                (* Heap mutation inside an open write window must hold
                   the pin lock, i.e. go through [record_write]. *)
                let writes =
                  List.exists (fun w -> Helpers.ends_with ~suffix:w name) write_prims
                  || ((not (List.is_empty cands))
                     && List.for_all (fun m -> (summary g m.nid).s_writes_mem) cands)
                in
                if writes && (not (Option.is_none !bump_open)) && !pin_depth = 0 then
                  flag e.exp_loc
                    "heap mutation inside an open seqlock write window without the pin lock; \
                     route it through [record_write]";
                (* Retry of the optimistic loop: every handle that was
                   invalidated must have been re-pinned first. *)
                let is_retry =
                  List.exists (fun m -> String.equal m.nid n.nid) cands
                  || List.exists (String.equal name) !local_recs
                in
                if is_retry then
                  Hashtbl.iter
                    (fun _ s ->
                      if s.validated && not s.repinned then
                        flag e.exp_loc
                          "optimistic restart without re-pinning the epoch; call the re-pin \
                           path before retrying")
                    !handles;
                (* Callee summaries apply pin / version-fetch events to
                   the handles its arguments root at. *)
                if not (List.is_empty cands) then begin
                  let pins = List.exists (fun m -> (summary g m.nid).s_pins) cands in
                  let rv = List.exists (fun m -> (summary g m.nid).s_reads_version) cands in
                  if pins || rv then
                    List.iter
                      (fun (_, a) ->
                        match a with
                        | Some a -> (
                            match root_of a with
                            | Some h ->
                                let s = state h in
                                if pins then begin
                                  s.pinned <- true;
                                  s.repinned <- true
                                end;
                                if rv then begin
                                  s.version <- true;
                                  s.validated <- false
                                end
                            | None -> ())
                        | None -> ())
                      args
                end;
                (* Lock context: thunks passed to lockers run under the
                   lock, in place. *)
                let lockers = locker_classes g ~unit_name:n.unit_name f args in
                if not (List.is_empty lockers) then begin
                  let dm = if List.exists is_mutex lockers then 1 else 0 in
                  let dp = if List.exists (class_equal Pin) lockers then 1 else 0 in
                  let is_protect = Helpers.ends_with ~suffix:"Mutex.protect" name in
                  let thunks, plain =
                    match args with
                    | m :: rest when is_protect -> (rest, [ m ])
                    | rest -> (rest, [])
                  in
                  List.iter (fun (_, a) -> Option.iter walk a) plain;
                  mutex_depth := !mutex_depth + dm;
                  pin_depth := !pin_depth + dp;
                  List.iter
                    (fun (_, a) -> Option.iter walk_closure_in_place a)
                    thunks;
                  mutex_depth := !mutex_depth - dm;
                  pin_depth := !pin_depth - dp
                end
                else if is_iterator_name name then
                  List.iter (fun (_, a) -> Option.iter walk_closure_in_place a) args
                else walk_args ()
              end
          | _ ->
              walk f;
              walk_args ()
        in
        (match spine_body n.vb.vb_expr with
        | Some body -> walk body
        | None -> walk_cases n.vb.vb_expr);
        scope_end ()
      end)
    (nodes g);
  List.rev !findings

let rule ~scope : Rule.t =
  Rule.graph ~id ~doc:"optimistic reads must validate on the same handle; writers bump inside record_write"
    ~scope check
