(* The uniform access-path record is built once by {!Engine.Make}; this
   module only re-exports it, picks the tree behind each scheme, and
   keeps the first-class scheme registry. *)
type t = Engine.ops = {
  tag : string;
  insert : Pk_keys.Key.t -> rid:int -> bool;
  lookup : Pk_keys.Key.t -> int option;
  delete : Pk_keys.Key.t -> bool;
  lookup_into : Pk_keys.Key.t array -> int array -> unit;
  insert_batch : Pk_keys.Key.t array -> rids:int array -> bool array;
  delete_batch : Pk_keys.Key.t array -> bool array;
  of_sorted : ?gap:float -> fill:float -> (Pk_keys.Key.t * int) array -> unit;
  compact : ?gap:float -> unit -> unit;
  layout : unit -> Layout.Placement.t option;
  iter : (key:Pk_keys.Key.t -> rid:int -> unit) -> unit;
  range :
    lo:Pk_keys.Key.t -> hi:Pk_keys.Key.t -> (key:Pk_keys.Key.t -> rid:int -> unit) -> unit;
  seq_from : Pk_keys.Key.t -> (Pk_keys.Key.t * int) Seq.t;
  count : unit -> int;
  height : unit -> int;
  node_count : unit -> int;
  space_bytes : unit -> int;
  deref_count : unit -> int;
  node_visits : unit -> int;
  reset_counters : unit -> unit;
  trace : Pk_obs.Obs.Trace.t;
  validate : unit -> unit;
  version : unit -> int;
  validated : int -> bool;
  guard : 'a. (unit -> 'a) -> 'a;
  snapshot : unit -> t;
  release : unit -> unit;
}

type structure = T_tree | B_tree

let structure_tag = function T_tree -> "T" | B_tree -> "B"

(* Non-flat placements get their own tag suffix so metric series and
   deref tables stay distinct per placement policy. *)
let tag_with_layout tag = function
  | Layout.Flat -> tag
  | policy -> tag ^ "+" ^ Layout.policy_tag policy

let make ?(node_bytes = 192) ?(naive_search = false) ?(layout = Layout.Flat) structure scheme
    mem records =
  let tag = tag_with_layout (structure_tag structure ^ "/" ^ Layout.scheme_tag scheme) layout in
  match structure with
  | B_tree ->
      Btree.wrap (Btree.create mem records { Btree.scheme; node_bytes; naive_search; layout }) ~tag
  | T_tree ->
      Ttree.wrap (Ttree.create mem records { Ttree.scheme; node_bytes; naive_search; layout }) ~tag

let make_prefix_btree ?(node_bytes = 192) ?(layout = Layout.Flat) mem records =
  Prefix_btree.wrap
    (Prefix_btree.create mem records { Prefix_btree.node_bytes; layout })
    ~tag:(tag_with_layout "B+/prefix" layout)

let journaled journal records ix =
  Engine.journaled journal
    ~payload_of:(fun rid -> Pk_records.Record_store.read_payload records rid)
    ix

(* {2 The six paper schemes (Figure 9), single-sourced} *)

type kind = K_direct | K_indirect | K_pk

let scheme_of kind ~key_len ~l_bytes =
  match kind with
  | K_direct -> Layout.Direct { key_len }
  | K_indirect -> Layout.Indirect
  | K_pk -> Layout.Partial { granularity = Pk_partialkey.Partial_key.Byte; l_bytes }

let paper_defs =
  [
    ("T-direct", T_tree, K_direct);
    ("T-indirect", T_tree, K_indirect);
    ("pkT", T_tree, K_pk);
    ("B-direct", B_tree, K_direct);
    ("B-indirect", B_tree, K_indirect);
    ("pkB", B_tree, K_pk);
  ]

let paper_schemes ~key_len ?(l_bytes = 2) () =
  List.map
    (fun (name, structure, kind) -> (name, structure, scheme_of kind ~key_len ~l_bytes))
    paper_defs

(* {2 Scheme registry} *)

module Registry = struct
  type info = {
    tag : string;
    structure : string;
    entry_bytes : int -> int option;
    build : ?node_bytes:int -> key_len:int -> Pk_mem.Mem.t -> Pk_records.Record_store.t -> t;
  }

  let table : (string, info) Hashtbl.t = Hashtbl.create 16
  let order : string list ref = ref []  (* registration order, newest first *)

  let register info =
    if not (Hashtbl.mem table info.tag) then begin
      Hashtbl.replace table info.tag info;
      order := info.tag :: !order
    end

  (* Sorted, not registration order: linkage forcing makes the latter
     depend on which modules happen to be pulled in. *)
  let tags () = List.sort_uniq String.compare !order
  let find tag = Hashtbl.find_opt table tag
  let all () = List.filter_map find (tags ())

  let get tag =
    match find tag with
    | Some info -> info
    | None ->
        invalid_arg
          (Printf.sprintf "unknown scheme tag %S; valid tags: %s" tag
             (String.concat ", " (tags ())))

  let build ?node_bytes ~key_len tag mem records =
    (get tag).build ?node_bytes ~key_len mem records
end

(* The six paper schemes and the §2 prefix B+-tree register here;
   further variants ({!Hybrid}, {!Variants}) register themselves. *)
let () =
  List.iter
    (fun (tag, structure, kind) ->
      Registry.register
        {
          Registry.tag;
          structure = structure_tag structure;
          entry_bytes =
            (fun key_len -> Some (Layout.entry_size (scheme_of kind ~key_len ~l_bytes:2)));
          build =
            (fun ?node_bytes ~key_len mem records ->
              make ?node_bytes structure (scheme_of kind ~key_len ~l_bytes:2) mem records);
        })
    paper_defs;
  Registry.register
    {
      Registry.tag = "B+/prefix";
      structure = "B+";
      entry_bytes = (fun _ -> None);
      build =
        (fun ?node_bytes ~key_len:_ mem records -> make_prefix_btree ?node_bytes mem records);
    }

(* Crash recovery: fresh memory system + record store, committed-prefix
   replay, deep validation — see {!Engine.recover}. *)
let recover_with ?gap ~build journal =
  let mem = Pk_mem.Mem.create () in
  let records = Pk_records.Record_store.create mem in
  let ix, stats =
    Engine.recover ?gap
      ~build:(fun () -> build mem records)
      ~store_insert:(fun ~key ~payload -> Pk_records.Record_store.insert records ~key ~payload)
      ~store_delete:(fun rid -> Pk_records.Record_store.delete records rid)
      journal
  in
  (mem, records, ix, stats)

let recover ?node_bytes ?gap ~key_len ~tag journal =
  recover_with ?gap ~build:(Registry.build ?node_bytes ~key_len tag) journal
