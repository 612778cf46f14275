(* guarded-mutation: every mutation of arena/node state must happen
   below the engine's unwind scope (PR 1's crash-atomicity contract):
   {!Pk_core.Engine.guarded} keeps the scalar header and runs the
   operation under the arena undo journal, so an injected fault unwinds to
   the exact pre-operation tree.  A write reachable from an exported
   entry point that never enters the guard would mutate state the
   journal cannot roll back.

   The writer fixpoint lives in {!Callgraph}: a binding writes
   ([s_writes_mem]) if it calls a region write primitive
   (Mem.write_*/move/alloc/free) directly or calls a writer that does
   not itself establish the guard ([guarded] / [Mem.guard] thunks run
   journaled).  Findings: exported writers that neither establish the
   guard nor carry [@pklint.guarded] — the audited escape for mutation
   primitives that are only invoked below an established guard, and
   for cold initialisation paths.

   Approximations (documented in DESIGN.md §11/§16): calls through
   record fields, functor parameters and first-class functions are
   invisible; a guard-establishing function's stray writes outside its
   own thunk are not distinguished. *)

let id = "guarded-mutation"

let check ~scope (g : Callgraph.t) =
  let open Callgraph in
  List.filter_map
    (fun (n : node) ->
      let excused = n.guarded_attr || Helpers.allowed id n.allows in
      if
        scope n.src && n.exported
        && (summary g n.nid).s_writes_mem
        && (not n.eff.guard) && not excused
      then
        Some
          (Finding.v ~rule:id ~file:n.src ~loc:n.loc ~name:n.nid
             "exported function mutates arena/node state without entering the unwind scope; \
              wrap the mutation in [guarded], or annotate [@pklint.guarded] after auditing \
              that every caller runs it below an established guard")
      else None)
    (nodes g)

let rule ~scope : Rule.t =
  Rule.graph ~id
    ~doc:"writes to arena/node state must run under the engine unwind scope" ~scope check
