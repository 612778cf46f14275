(* Whole-program call graph + per-function effect summaries: the
   shared interprocedural layer under pklint's concurrency and
   mutation rules (DESIGN.md §16).

   Construction is three passes over the structure-level bindings of
   every loaded unit:

   1. node table — one node per binding, with the shared bidirectional
      dotted-suffix resolver (qualified references may carry the
      wrapping library module, node ids may be more qualified than a
      unit-local reference; bare names resolve within their unit);
   2. a locker fixpoint — a binding is a *locker* when it runs a
      function-typed parameter under a lock it takes itself
      ([record_write], [locked_when], [guarded_when], and anything
      built from them), so call sites can thread the lock context
      through higher-order code;
   3. effect extraction — a lock-context-sensitive walk of each body
      recording direct facts (writes, acquisitions, allocation, pins,
      version reads/bumps, [Domain.spawn] escapes, resolved call
      edges), followed by a worklist fixpoint for the transitive
      summaries.

   Documented approximations: calls through record fields and functor
   parameters are invisible (their effects are attributed at the
   closure that implements them only if it is let-bound or passed to a
   known immediate invoker); closures stored in records or returned
   run at an unknown time, so only their [Domain.spawn] escapes are
   attributed to the enclosing binding. *)

open Typedtree
module SSet = Set.Make (String)

(* {2 Lock classes} *)

type lock_class = Shard of int option | Pin | Arena | Other

let rank = function Shard _ -> 0 | Pin -> 1 | Arena -> 2 | Other -> 3

let class_name = function
  | Shard None -> "the shard mutex"
  | Shard (Some i) -> Printf.sprintf "shard(%d)'s mutex" i
  | Pin -> "the pin lock"
  | Arena -> "the arena guard"
  | Other -> "an unclassified mutex"

let class_equal a b =
  match (a, b) with
  | Shard None, Shard None -> true
  | Shard (Some i), Shard (Some j) -> Int.equal i j
  | Pin, Pin | Arena, Arena | Other, Other -> true
  | _ -> false

let same_class a b =
  match (a, b) with
  | Shard _, Shard _ | Pin, Pin | Arena, Arena | Other, Other -> true
  | _ -> false

let is_mutex = function Arena -> false | Shard _ | Pin | Other -> true

(* {2 Effects and nodes} *)

type write = { w_loc : Location.t; w_what : string; w_allows : string list }

type effects = {
  mutable calls : (string * bool * bool) list;
  mutable writes_mem : bool;
  mutable unlocked_writes : write list;
  mutable guard : bool;
  mutable acquires : lock_class list;
  mutable allocates : bool;
  mutable pins : bool;
  mutable reads_version : bool;
  mutable bumps_version : bool;
  mutable spawns : expression list;
}

let empty_effects () =
  {
    calls = [];
    writes_mem = false;
    unlocked_writes = [];
    guard = false;
    acquires = [];
    allocates = false;
    pins = false;
    reads_version = false;
    bumps_version = false;
    spawns = [];
  }

type node = {
  nid : string;
  local : string;
  unit_name : string;
  src : string;
  loc : Location.t;
  vb : value_binding;
  exported : bool;
  hot : bool;
  guarded_attr : bool;
  allows : string list;
  params : string list;
  eff : effects;
  mutable locks_thunk : lock_class list;
}

type summary = {
  s_writes_mem : bool;
  s_acquires : lock_class list;
  s_allocates : bool;
  s_pins : bool;
  s_reads_version : bool;
}

let empty_summary =
  {
    s_writes_mem = false;
    s_acquires = [];
    s_allocates = false;
    s_pins = false;
    s_reads_version = false;
  }

type t = {
  g_nodes : node list;
  tbl : (string, node) Hashtbl.t;
  by_last : (string, node list) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
}

let nodes g = g.g_nodes
let find g nid = Hashtbl.find_opt g.tbl nid

let summary g nid =
  match Hashtbl.find_opt g.summaries nid with Some s -> s | None -> empty_summary

(* {2 Name tables} *)

let write_prims =
  [
    "Mem.write_u8";
    "Mem.write_u16";
    "Mem.write_u32";
    "Mem.write_u64";
    "Mem.write_bytes";
    "Mem.move";
    "Mem.alloc";
    "Mem.free";
    "Arena.set_u8";
    "Arena.set_u16";
    "Arena.set_u32";
    "Arena.set_u64";
    "Arena.blit_from_bytes";
    "Arena.blit_within";
    "Arena.alloc";
    "Arena.free";
  ]

let guard_names = [ "guarded"; "Mem.guard"; "Engine.guarded" ]

(* Stdlib entry points that allocate their result (shared with the
   zero-alloc-hot rule). *)
let allocating_calls =
  [
    "Stdlib.^";
    "Stdlib.@";
    "Stdlib.ref";
    "Bytes.create";
    "Bytes.make";
    "Bytes.sub";
    "Bytes.copy";
    "Bytes.cat";
    "Bytes.of_string";
    "Bytes.to_string";
    "Bytes.sub_string";
    "String.sub";
    "String.concat";
    "String.make";
    "String.init";
    "Array.make";
    "Array.init";
    "Array.copy";
    "Array.append";
    "Array.sub";
    "Array.of_list";
    "Array.to_list";
    "List.map";
    "List.mapi";
    "List.init";
    "List.append";
    "List.rev";
    "List.concat";
    "List.filter";
    "Printf.sprintf";
    "Printf.ksprintf";
    "Format.asprintf";
  ]

let raising_calls =
  [
    "Stdlib.raise";
    "Stdlib.raise_notrace";
    "Stdlib.failwith";
    "Stdlib.invalid_arg";
    "Printexc.raise_with_backtrace";
  ]

(* Immediately-invoked higher-order stdlib entry points: closures
   passed to these run before the call returns, so they inherit the
   caller's lock context. *)
let iterator_names =
  [
    "Array.iter";
    "Array.iteri";
    "Array.map";
    "Array.mapi";
    "Array.fold_left";
    "Array.fold_right";
    "Array.init";
    "Array.for_all";
    "Array.exists";
    "Array.sort";
    "List.iter";
    "List.iteri";
    "List.map";
    "List.mapi";
    "List.fold_left";
    "List.fold_right";
    "List.for_all";
    "List.exists";
    "List.filter";
    "List.filter_map";
    "List.concat_map";
    "List.init";
    "List.sort";
    "List.partition";
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Option.iter";
    "Option.map";
    "Option.fold";
    "Option.value";
    "Seq.iter";
    "Seq.fold_left";
    "Fun.protect";
    "Stdlib.ignore";
  ]

(* Right-hand sides that denote a freshly-allocated value: a [let] of
   one of these is domain-local state, not shared state. *)
let fresh_allocators =
  [
    "Stdlib.ref";
    "Array.make";
    "Array.init";
    "Array.copy";
    "Array.sub";
    "Array.of_list";
    "Bytes.create";
    "Bytes.make";
    "Bytes.copy";
    "Bytes.sub";
    "Bytes.init";
    "Buffer.create";
    "Hashtbl.create";
    "Queue.create";
    "Stack.create";
    "Mutex.create";
    "Atomic.make";
    "Prng.create";
    "Prng.copy";
    "Prng.split";
  ]

let atomic_ops =
  [
    "Atomic.make";
    "Atomic.get";
    "Atomic.set";
    "Atomic.incr";
    "Atomic.decr";
    "Atomic.exchange";
    "Atomic.compare_and_set";
    "Atomic.fetch_and_add";
  ]

let matches names r = List.exists (fun w -> Helpers.ends_with ~suffix:w r) names
let is_iterator_name n = matches iterator_names n
let is_raise_name n = matches raising_calls n
let is_atomic_name n = matches atomic_ops n

(* {2 Small typedtree helpers} *)

let is_arrow ty =
  match Types.get_desc (Helpers.strip_poly ty) with Types.Tarrow _ -> true | _ -> false

let head_name (e : expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (Helpers.path_name p) | _ -> None

let is_get_name n =
  let last = Helpers.last_component n in
  String.equal last "get" || String.equal last "unsafe_get"

(* Root identifier of a projection chain: fields and array reads only —
   function application results are fresh handles, not projections. *)
let rec handle_root (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (Helpers.last_component (Path.name p))
  | Texp_field (r, _, _) -> handle_root r
  | Texp_apply (f, (_, Some a) :: _) -> (
      match head_name f with Some n when is_get_name n -> handle_root a | _ -> None)
  | _ -> None

let rec flatten_apply (f : expression) args =
  match f.exp_desc with
  | Texp_apply (g, gargs) -> flatten_apply g (gargs @ args)
  | Texp_ident (p, _, _) -> (
      let n = Helpers.path_name p in
      let pipe g x =
        match g.exp_desc with
        | Texp_apply (g0, gargs) -> flatten_apply g0 (gargs @ [ x ])
        | _ -> flatten_apply g [ x ]
      in
      match args with
      | [ (_, Some g); x ] when String.equal n "Stdlib.@@" -> pipe g x
      | [ x; (_, Some g) ] when String.equal n "Stdlib.|>" -> pipe g x
      | _ -> (f, args))
  | _ -> (f, args)

let alloc_kind (e : expression) =
  match e.exp_desc with
  | Texp_function _ -> Some "closure allocation"
  | Texp_tuple _ -> Some "tuple allocation"
  | Texp_record _ -> Some "record allocation"
  | Texp_array (_ :: _) -> Some "array allocation"
  | Texp_construct (_, cd, _ :: _) ->
      Some (Printf.sprintf "boxed constructor allocation (%s)" cd.Types.cstr_name)
  | Texp_variant (_, Some _) -> Some "polymorphic-variant allocation"
  | Texp_lazy _ -> Some "lazy-value allocation"
  | Texp_object _ -> Some "object allocation"
  | Texp_pack _ -> Some "first-class-module allocation"
  | Texp_letop _ -> Some "binding-operator allocation"
  | Texp_apply (f, _) -> (
      if is_arrow e.exp_type then Some "partial application (closure)"
      else
        match head_name f with
        | Some n when matches allocating_calls n ->
            Some (Printf.sprintf "allocating call (%s)" n)
        | _ -> None)
  | _ -> None

let rec is_fresh_alloc (e : expression) =
  match e.exp_desc with
  | Texp_record _ | Texp_array _ | Texp_tuple _ | Texp_construct _ | Texp_function _
  | Texp_constant _ ->
      true
  | Texp_apply (f, _) -> ( match head_name f with Some n -> matches fresh_allocators n | None -> false)
  | Texp_let (_, _, b) | Texp_sequence (_, b) -> is_fresh_alloc b
  | _ -> false

(* Lock classification of a [Mutex.protect]'s mutex argument: the
   engine's lattice is recognised structurally — a [pin_lock] field is
   the pin lock, a [lock] field of a record whose type is named [shard]
   is that shard's mutex (with a constant index when the access is
   [shards.(c)]), anything else is [Other]. *)
let record_type_name (e : expression) =
  match Types.get_desc (Helpers.strip_poly e.exp_type) with
  | Types.Tconstr (p, _, _) -> Some (Helpers.last_component (Helpers.path_name p))
  | _ -> None

let shard_index (r : expression) =
  match r.exp_desc with
  | Texp_apply (f, [ _; (_, Some { exp_desc = Texp_constant (Asttypes.Const_int i); _ }) ])
    when match head_name f with Some n -> is_get_name n | None -> false ->
      Some i
  | _ -> None

let rec classify_mutex (e : expression) =
  match e.exp_desc with
  | Texp_field (r, _, ld) -> (
      match ld.Types.lbl_name with
      | "pin_lock" -> Pin
      | "lock" -> (
          match record_type_name r with Some "shard" -> Shard (shard_index r) | _ -> Other)
      | _ -> Other)
  | Texp_let (_, _, b) | Texp_sequence (_, b) -> classify_mutex b
  | _ -> Other

let is_version_cell (a : expression) =
  match a.exp_desc with
  | Texp_ident (p, _, _) ->
      String.equal (Helpers.last_component (Helpers.path_name p)) "ver"
  | Texp_field (_, _, ld) ->
      let n = ld.Types.lbl_name in
      String.equal n "ver" || String.equal n "version"
  | _ -> false

let rec pat_idents : type k. k general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ Ident.name id ]
  | Tpat_alias (q, id, _) -> Ident.name id :: pat_idents q
  | Tpat_tuple ps -> List.concat_map pat_idents ps
  | _ -> []

let rec spine_params (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> pat_idents c.c_lhs @ spine_params c.c_rhs
  | _ -> []

let rec spine_body (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } -> spine_body c_rhs
  | Texp_function _ -> None
  | _ -> Some e

(* {2 Resolution} *)

let resolve g ~unit_name r =
  match Hashtbl.find_opt g.by_last (Helpers.last_component r) with
  | None -> []
  | Some cands ->
      if String.contains r '.' then
        List.filter
          (fun m -> Helpers.ends_with ~suffix:r m.nid || Helpers.ends_with ~suffix:m.nid r)
          cands
      else List.filter (fun m -> String.equal m.unit_name unit_name) cands

let resolve_head g ~unit_name (e : expression) =
  match head_name e with Some n -> resolve g ~unit_name n | None -> []

let locker_classes g ~unit_name (f : expression) args =
  match f.exp_desc with
  | Texp_field (_, _, ld) when String.equal ld.Types.lbl_name "guard" -> [ Arena ]
  | Texp_ident (p, _, _) -> (
      let n = Helpers.path_name p in
      if Helpers.ends_with ~suffix:"Mutex.protect" n || Helpers.ends_with ~suffix:"Mutex.lock" n
      then match args with (_, Some m) :: _ -> [ classify_mutex m ] | _ -> [ Other ]
      else if matches guard_names n then [ Arena ]
      else
        List.concat_map (fun m -> m.locks_thunk) (resolve g ~unit_name n)
        |> List.sort_uniq (fun a b -> Int.compare (Hashtbl.hash a) (Hashtbl.hash b)))
  | _ -> []

(* {2 Locker fixpoint} *)

let expr_mentions_fn_param params (e : expression) =
  let found = ref false in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _)
      when is_arrow e.exp_type
           && List.exists (String.equal (Helpers.last_component (Path.name p))) params ->
        found := true
    | _ -> ());
    if not !found then Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let locker_pass g =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        match n.params with
        | [] -> ()
        | params ->
            let add cls =
              List.iter
                (fun c ->
                  if not (List.exists (class_equal c) n.locks_thunk) then begin
                    n.locks_thunk <- c :: n.locks_thunk;
                    changed := true
                  end)
                cls
            in
            let expr it (e : expression) =
              (match e.exp_desc with
              | Texp_apply (f0, args0) ->
                  let f, args = flatten_apply f0 args0 in
                  let thunk_args =
                    match f.exp_desc with
                    | Texp_ident (p, _, _)
                      when Helpers.ends_with ~suffix:"Mutex.protect" (Helpers.path_name p) -> (
                        match args with _ :: rest -> rest | [] -> [])
                    | _ -> args
                  in
                  let reaches =
                    List.exists
                      (fun (_, a) ->
                        match a with
                        | Some a -> expr_mentions_fn_param params a
                        | None -> false)
                      thunk_args
                  in
                  if reaches then add (locker_classes g ~unit_name:n.unit_name f args)
              | _ -> ());
              Tast_iterator.default_iterator.expr it e
            in
            let it = { Tast_iterator.default_iterator with expr } in
            it.expr it n.vb.vb_expr)
      g.g_nodes
  done

(* {2 Effect extraction} *)

type wctx = { locked : lock_class list; cold : bool; attr : bool }

let add_class c cs = if List.exists (class_equal c) cs then cs else c :: cs
let mutex_held l = List.exists is_mutex l

let extract g ~unit_name ?(locked = []) (eff : effects) (root : expression) =
  let locals = ref SSet.empty in
  let cur = ref { locked; cold = false; attr = true } in
  let with_ctx c f =
    let saved = !cur in
    cur := c;
    f ();
    cur := saved
  in
  let note_alloc ctx = if ctx.attr && not ctx.cold then eff.allocates <- true in
  let note_write ctx ?(allows = []) loc what target =
    let local = match target with Some t -> SSet.mem t !locals | None -> false in
    if ctx.attr && (not local) && not (mutex_held ctx.locked) then
      eff.unlocked_writes <- { w_loc = loc; w_what = what; w_allows = allows } :: eff.unlocked_writes
  in
  let note_name ctx ?(allows = []) name loc =
    if ctx.attr then begin
      if matches write_prims name then begin
        eff.writes_mem <- true;
        note_write ctx ~allows loc (Printf.sprintf "region write (%s)" name) None
      end;
      if matches guard_names name then eff.guard <- true
    end;
    match resolve g ~unit_name name with
    | [] -> ()
    | cands ->
        if ctx.attr then
          List.iter
            (fun m ->
              let edge = (m.nid, mutex_held ctx.locked, ctx.cold) in
              if
                not
                  (List.exists
                     (fun (c, l, k) ->
                       String.equal c m.nid
                       && Bool.equal l (mutex_held ctx.locked)
                       && Bool.equal k ctx.cold)
                     eff.calls)
              then eff.calls <- edge :: eff.calls)
            cands
  in
  let rec expr it (e : expression) =
    let ctx0 = !cur in
    let cold =
      ctx0.cold || Helpers.is_cold e.exp_attributes
      || Helpers.allowed "zero-alloc-hot" (Helpers.allows e.exp_attributes)
    in
    let ctx = { ctx0 with cold } in
    (match alloc_kind e with Some _ -> note_alloc ctx | None -> ());
    match e.exp_desc with
    | Texp_ident (p, _, _) -> note_name ctx (Helpers.path_name p) e.exp_loc
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            (match vb.vb_pat.pat_desc with
            | Tpat_var (id0, _) when is_fresh_alloc vb.vb_expr ->
                locals := SSet.add (Ident.name id0) !locals
            | _ -> ());
            match vb.vb_expr.exp_desc with
            | Texp_function _ ->
                (* A local function definition: analysed with no lock
                   held (its call sites may differ), but attributed —
                   local closures are invoked or spawned below. *)
                walk_cases it { ctx with locked = [] } vb.vb_expr
            | _ -> with_ctx ctx (fun () -> it.Tast_iterator.expr it vb.vb_expr))
          vbs;
        with_ctx ctx (fun () -> it.Tast_iterator.expr it body)
    | Texp_function _ ->
        (* Stored or returned closure: runs at an unknown time with no
           lock held; only its [Domain.spawn] escapes are attributed. *)
        walk_cases it { locked = []; cold = ctx.cold; attr = false } e
    | Texp_setfield (r, _, ld, v) ->
        note_write ctx
          ~allows:(Helpers.allows e.exp_attributes)
          e.exp_loc
          (Printf.sprintf "mutable field %s" ld.Types.lbl_name)
          (handle_root r);
        with_ctx ctx (fun () ->
            it.Tast_iterator.expr it r;
            it.Tast_iterator.expr it v)
    | Texp_apply (f0, args0) -> handle_apply it ctx e f0 args0
    | Texp_assert _ ->
        with_ctx { ctx with cold = true } (fun () -> Tast_iterator.default_iterator.expr it e)
    | _ -> with_ctx ctx (fun () -> Tast_iterator.default_iterator.expr it e)
  and walk_arg it c (_, a) = Option.iter (fun a -> with_ctx c (fun () -> it.Tast_iterator.expr it a)) a
  and walk_closure_arg it c (lbl, a) =
    (* Closure runs at call time: body inherits ctx [c] instead of the
       deferred-closure default. *)
    match a with
    | Some ({ exp_desc = Texp_function _; _ } as fn) ->
        note_alloc c;
        walk_cases it c fn
    | _ -> walk_arg it c (lbl, a)
  and walk_cases it c (fn : expression) =
    match fn.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun cs ->
            Option.iter (fun g_ -> with_ctx c (fun () -> it.Tast_iterator.expr it g_)) cs.c_guard;
            match cs.c_rhs.exp_desc with
            | Texp_function _ -> walk_cases it c cs.c_rhs
            | _ -> with_ctx c (fun () -> it.Tast_iterator.expr it cs.c_rhs))
          cases
    | _ -> with_ctx c (fun () -> it.Tast_iterator.expr it fn)
  and handle_apply it ctx e f0 args0 =
    let f, args = flatten_apply f0 args0 in
    match f.exp_desc with
    | Texp_field (r, _, ld) ->
        (match ld.Types.lbl_name with
        | "guard" ->
            if ctx.attr then begin
              eff.guard <- true;
              eff.acquires <- add_class Arena eff.acquires
            end
        | "snapshot" -> if ctx.attr then eff.pins <- true
        | "version" -> if ctx.attr then eff.reads_version <- true
        | _ -> ());
        with_ctx ctx (fun () -> it.Tast_iterator.expr it r);
        (* [ops.guard f] runs [f] before returning; the guard is an
           unwind scope, not a mutex, so the lock context is
           unchanged. *)
        if String.equal ld.Types.lbl_name "guard" then List.iter (walk_closure_arg it ctx) args
        else List.iter (walk_arg it ctx) args
    | Texp_ident (p, _, _) ->
        let name = Helpers.path_name p in
        if Helpers.ends_with ~suffix:"Domain.spawn" name then
          (* The closure runs on another domain: recorded for the
             domain-safety rule, not attributed here. *)
          List.iter
            (fun (lbl, a) ->
              match a with
              | Some ({ exp_desc = Texp_function _; _ } as c) ->
                  if ctx.attr then eff.spawns <- c :: eff.spawns
              | _ -> walk_arg it ctx (lbl, a))
            args
        else if Helpers.ends_with ~suffix:"Mutex.protect" name then begin
          match args with
          | (_, Some m) :: rest ->
              if ctx.attr then eff.acquires <- add_class (classify_mutex m) eff.acquires;
              with_ctx ctx (fun () -> it.Tast_iterator.expr it m);
              let inner = { ctx with locked = classify_mutex m :: ctx.locked } in
              List.iter (walk_closure_arg it inner) rest
          | rest -> List.iter (walk_arg it ctx) rest
        end
        else if Helpers.ends_with ~suffix:"Mutex.lock" name then begin
          (match args with
          | (_, Some m) :: _ when ctx.attr -> eff.acquires <- add_class (classify_mutex m) eff.acquires
          | _ -> ());
          List.iter (walk_arg it ctx) args
        end
        else if is_raise_name name then
          (* Everything under a raise is the error path: cold. *)
          List.iter (walk_arg it { ctx with cold = true }) args
        else if matches atomic_ops name then begin
          (* Atomics are the sanctioned cross-domain cells: reads and
             writes race by design and are never unlocked-write
             findings; incr/set on a version cell is a seqlock bump. *)
          let last = Helpers.last_component name in
          if
            ctx.attr
            && (String.equal last "incr" || String.equal last "set")
            && List.exists (fun (_, a) -> match a with Some a -> is_version_cell a | None -> false) args
          then eff.bumps_version <- true;
          List.iter (walk_arg it ctx) args
        end
        else begin
          note_name ctx ~allows:(Helpers.allows e.exp_attributes) name f.exp_loc;
          (match write_target name args with
          | Some (what, tgt) ->
              note_write ctx ~allows:(Helpers.allows e.exp_attributes) e.exp_loc what tgt
          | None -> ());
          let lockers = locker_classes g ~unit_name f args in
          if not (List.is_empty lockers) then begin
            if ctx.attr then
              List.iter (fun c -> eff.acquires <- add_class c eff.acquires) lockers;
            let inner =
              { ctx with locked = List.filter is_mutex lockers @ ctx.locked }
            in
            List.iter (walk_closure_arg it inner) args
          end
          else if is_iterator_name name then List.iter (walk_closure_arg it ctx) args
          else List.iter (walk_arg it ctx) args
        end
    | _ ->
        with_ctx ctx (fun () -> it.Tast_iterator.expr it f);
        List.iter (walk_arg it ctx) args
  and write_target name args =
    let tgt i =
      match List.nth_opt args i with Some (_, Some a) -> handle_root a | _ -> None
    in
    let m s = Helpers.ends_with ~suffix:s name in
    if m "Stdlib.:=" then Some ("reference assignment (:=)", tgt 0)
    else if m "Stdlib.incr" || m "Stdlib.decr" then
      Some ("reference update (" ^ Helpers.last_component name ^ ")", tgt 0)
    else if m "Array.set" || m "Array.unsafe_set" || m "Array.fill" then
      Some ("array write (" ^ Helpers.last_component name ^ ")", tgt 0)
    else if m "Array.blit" then Some ("array write (blit)", tgt 2)
    else if m "Bytes.set" || m "Bytes.unsafe_set" || m "Bytes.fill" then
      Some ("bytes write (" ^ Helpers.last_component name ^ ")", tgt 0)
    else if m "Bytes.blit" || m "Bytes.blit_string" then Some ("bytes write (blit)", tgt 2)
    else if
      m "Hashtbl.replace" || m "Hashtbl.add" || m "Hashtbl.remove" || m "Hashtbl.reset"
      || m "Hashtbl.clear"
    then Some ("hashtable write (" ^ Helpers.last_component name ^ ")", tgt 0)
    else None
  in
  let it = { Tast_iterator.default_iterator with expr } in
  (* Peel the definition-time currying spine: the hot calls execute the
     body, not the spine closures. *)
  let rec top (e : expression) =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            Option.iter (fun g_ -> it.Tast_iterator.expr it g_) c.c_guard;
            top c.c_rhs)
          cases
    | _ -> it.Tast_iterator.expr it e
  in
  top root

let effects_of_expr g ~unit_name e =
  let eff = empty_effects () in
  extract g ~unit_name eff e;
  eff

(* {2 Summaries} *)

let summarize g =
  List.iter
    (fun n ->
      Hashtbl.replace g.summaries n.nid
        {
          s_writes_mem = n.eff.writes_mem;
          s_acquires = n.eff.acquires;
          s_allocates = n.eff.allocates;
          s_pins = n.eff.pins;
          s_reads_version = n.eff.reads_version;
        })
    g.g_nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        let s = summary g n.nid in
        let s' =
          List.fold_left
            (fun acc (cid, _, ecold) ->
              match find g cid with
              | None -> acc
              | Some m ->
                  let cs = summary g cid in
                  (* Definition-time effects of a non-function binding
                     ([let active = ref false]) happen once at module
                     init; referencing the value later does not replay
                     its allocation. *)
                  let is_fn = is_arrow m.vb.vb_expr.exp_type in
                  {
                    s_writes_mem = acc.s_writes_mem || (cs.s_writes_mem && not m.eff.guard);
                    s_acquires = List.fold_left (fun l c -> add_class c l) acc.s_acquires cs.s_acquires;
                    s_allocates = acc.s_allocates || (cs.s_allocates && is_fn && not ecold);
                    s_pins = acc.s_pins || cs.s_pins;
                    s_reads_version = acc.s_reads_version || cs.s_reads_version;
                  })
            s n.eff.calls
        in
        let grew =
          Bool.compare s'.s_writes_mem s.s_writes_mem <> 0
          || List.length s'.s_acquires <> List.length s.s_acquires
          || Bool.compare s'.s_allocates s.s_allocates <> 0
          || Bool.compare s'.s_pins s.s_pins <> 0
          || Bool.compare s'.s_reads_version s.s_reads_version <> 0
        in
        if grew then begin
          Hashtbl.replace g.summaries n.nid s';
          changed := true
        end)
      g.g_nodes
  done

(* {2 Build} *)

let build (cmts : Helpers.cmt list) =
  let acc = ref [] in
  List.iter
    (fun cmt ->
      Helpers.iter_bindings cmt.Helpers.str (fun b ->
          let local = String.concat "." (b.Helpers.path @ [ b.Helpers.name ]) in
          acc :=
            {
              nid = Helpers.qualified cmt b;
              local;
              unit_name = cmt.Helpers.modname;
              src = cmt.Helpers.src;
              loc = b.Helpers.vb.vb_loc;
              vb = b.Helpers.vb;
              exported = Helpers.exported cmt.Helpers.exports local;
              hot = Helpers.is_hot b.Helpers.vb.vb_attributes;
              guarded_attr = Helpers.is_guarded b.Helpers.vb.vb_attributes;
              allows = b.Helpers.inherited_allows;
              params = spine_params b.Helpers.vb.vb_expr;
              eff = empty_effects ();
              locks_thunk = [];
            }
            :: !acc))
    cmts;
  let g_nodes = List.rev !acc in
  let tbl = Hashtbl.create 512 in
  let by_last = Hashtbl.create 512 in
  List.iter
    (fun n ->
      Hashtbl.replace tbl n.nid n;
      let k = Helpers.last_component n.nid in
      let prev = match Hashtbl.find_opt by_last k with Some l -> l | None -> [] in
      Hashtbl.replace by_last k (n :: prev))
    g_nodes;
  let g = { g_nodes; tbl; by_last; summaries = Hashtbl.create 512 } in
  locker_pass g;
  List.iter (fun n -> extract g ~unit_name:n.unit_name n.eff n.vb.vb_expr) g.g_nodes;
  summarize g;
  g
