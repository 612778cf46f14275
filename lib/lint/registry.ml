(* The shipped rule set with its default source scopes.  Scopes are
   source-path prefixes within the repository: the hot-path,
   fault-safety and concurrency contracts are repository-wide, the
   mutation-guard contract concerns the index structures in lib/core
   (lib/mem and lib/arena *are* the primitive layer it protects
   against). *)

let default_rules =
  [
    Rule_poly_compare.rule ~scope:Rule.everywhere;
    Rule_zero_alloc.rule ~scope:Rule.everywhere;
    Rule_guarded_mutation.rule ~scope:(Rule.under [ "lib/core/" ]);
    Rule_no_swallow.rule ~scope:Rule.everywhere;
    Rule_domain_shared_mutation.rule ~scope:Rule.everywhere;
    Rule_seqlock.rule ~scope:Rule.everywhere;
    Rule_lock_lattice.rule ~scope:Rule.everywhere;
  ]

let find_rule id = List.find_opt (fun r -> String.equal r.Rule.id id) default_rules

let rule_ids = List.map (fun r -> r.Rule.id) default_rules

(* Run [rules] over the loaded units.  The interprocedural call graph
   is built once from *every* loaded unit — summaries must see callees
   outside a rule's reporting scope — while each rule's [on_cmt] sees
   only the units its scope admits. *)
let run rules (cmts : Helpers.cmt list) =
  let graph = Callgraph.build cmts in
  (match Sys.getenv_opt "PKLINT_DEBUG_SUMMARY" with
  | Some pat ->
      List.iter
        (fun (n : Callgraph.node) ->
          if
            String.equal (Helpers.last_component n.Callgraph.nid) pat
            || String.equal n.Callgraph.nid pat
          then begin
            let s = Callgraph.summary graph n.Callgraph.nid in
            Printf.eprintf "%s: alloc(self)=%b alloc(sum)=%b pins=%b rdver=%b calls=[%s]\n"
              n.Callgraph.nid n.Callgraph.eff.Callgraph.allocates s.Callgraph.s_allocates
              s.Callgraph.s_pins s.Callgraph.s_reads_version
              (String.concat "; "
                 (List.map
                    (fun (c, l, k) -> Printf.sprintf "%s%s%s" c (if l then " locked" else "") (if k then " cold" else ""))
                    n.Callgraph.eff.Callgraph.calls))
          end)
        (Callgraph.nodes graph)
  | None -> ());
  let findings =
    List.concat_map
      (fun (r : Rule.t) ->
        let c = r.Rule.make () in
        List.iter (fun cmt -> if r.Rule.scope cmt.Helpers.src then c.Rule.on_cmt cmt) cmts;
        c.Rule.finish graph)
      rules
  in
  List.sort Finding.compare findings
