(* The uniform access-path record is built once by {!Engine.Make}; this
   module only re-exports it, picks the tree behind each scheme, and
   keeps the static scheme table. *)
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

let make_hybrid ?node_bytes ~key_len ?granularity ?l_bytes structure mem records =
  let ix = make ?node_bytes structure (Hybrid.scheme_for ~key_len ?granularity ?l_bytes ()) mem records in
  { ix with tag = "hybrid(" ^ ix.tag ^ ")" }

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

  (* A [make] tree over the key-storage scheme [scheme key_len]. *)
  let tree ?layout tag structure scheme =
    {
      tag;
      structure = structure_tag structure;
      entry_bytes = (fun key_len -> Some (Layout.entry_size (scheme key_len)));
      build =
        (fun ?node_bytes ~key_len mem records ->
          make ?node_bytes ?layout structure (scheme key_len) mem records);
    }

  let prefix ?layout tag =
    {
      tag;
      structure = "B+";
      entry_bytes = (fun _ -> None);
      build = (fun ?node_bytes ~key_len:_ mem records -> make_prefix_btree ?node_bytes ?layout mem records);
    }

  (* One [base] sub-index per shard, all over the caller's memory
     system and record heap. *)
  let sharded ~partition base =
    let tag = Printf.sprintf "sharded:%d/%s" (Shard.Partition.shards partition) base.tag in
    {
      tag;
      structure = base.structure;
      entry_bytes = (fun _ -> None);
      build =
        (fun ?node_bytes ~key_len mem records ->
          Shard.Engine.ops
            (Shard.Engine.create ~tag ~partition (fun _ ->
                 base.build ?node_bytes ~key_len mem records)));
    }

  let pk l_bytes key_len = scheme_of K_pk ~key_len ~l_bytes

  (* Every buildable scheme, one row each, sorted by tag: the paper's
     six, the §2 prefix B+-tree, the §6 hybrid, the l = 4 point of the
     l-sweep (A2), the blocked bulk-load placements (identical search
     paths, only addresses differ), and one hash- and one
     range-partitioned sharded engine, so every registry-driven suite
     also exercises the sharded path. *)
  let table =
    let paper =
      List.map
        (fun (tag, structure, kind) ->
          tree tag structure (fun key_len -> scheme_of kind ~key_len ~l_bytes:2))
        paper_defs
    in
    let pkb = List.find (fun info -> String.equal info.tag "pkB") paper in
    let prefix_btree = prefix "B+/prefix" in
    let blocked = Layout.blocked_default in
    List.sort
      (fun a b -> String.compare a.tag b.tag)
      (paper
      @ [
          prefix_btree;
          prefix ~layout:blocked "B+/prefix-blocked";
          {
            tag = "hybrid";
            structure = "B";
            entry_bytes =
              (fun key_len -> Some (Layout.entry_size (Hybrid.scheme_for ~key_len:(Some key_len) ())));
            build =
              (fun ?node_bytes ~key_len mem records ->
                make_hybrid ?node_bytes ~key_len:(Some key_len) B_tree mem records);
          };
          tree "B/pk-byte-l4" B_tree (pk 4);
          tree ~layout:blocked "pkB-blocked" B_tree (pk 2);
          tree ~layout:blocked "pkT-blocked" T_tree (pk 2);
          sharded ~partition:(Shard.Partition.hash 4) pkb;
          sharded ~partition:(Shard.Partition.range [| Pk_keys.Key.of_string "m" |]) prefix_btree;
        ])

  let tags () = List.map (fun info -> info.tag) table
  let find tag = List.find_opt (fun info -> String.equal info.tag tag) table
  let all () = table

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
