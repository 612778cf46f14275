module Mem = Pk_mem.Mem
module Fault = Pk_fault.Fault
module Key = Pk_keys.Key
module Record_store = Pk_records.Record_store
module Node_search = Pk_partialkey.Node_search
module Counters = Engine.Counters
module Scratch = Engine.Scratch
module Entries = Engine.Entries
module Tgroup = Engine.Tgroup

type config = {
  scheme : Layout.scheme;
  node_bytes : int;
  naive_search : bool;
  layout : Layout.policy; (* where bulk loads place nodes; inserts always bump-alloc *)
}

let default_config scheme =
  { scheme; node_bytes = 192; naive_search = false; layout = Layout.Flat }

type t = {
  reg : Mem.region;
  records : Record_store.t;
  cfg : config;
  ec : Entries.ctx;
  sc : Scratch.t; (* also aims the reusable entry_ops at (node, probe) *)
  max_entries : int;
  min_internal : int;
  mutable root : int;
  mutable n_nodes : int;
  mutable n_keys : int;
  mutable td : Tgroup.driver option;
}

let null = Pk_arena.Arena.null

(* Node layout: [0:num u16][2:height u8][3..7:pad][8:left u64]
   [16:right u64][24:entries]. *)
let entries_at = 24

let create mem records cfg =
  let esz = Layout.entry_size cfg.scheme in
  let max_entries = (cfg.node_bytes - entries_at) / esz in
  if max_entries < 2 then
    invalid_arg
      (Printf.sprintf "Ttree.create: node of %d bytes holds %d entries under scheme %s"
         cfg.node_bytes max_entries (Layout.scheme_tag cfg.scheme));
  let reg =
    Mem.new_region mem ~initial_capacity:(1 lsl 20) ~name:("ttree-" ^ Layout.scheme_tag cfg.scheme)
      ()
  in
  {
    reg;
    records;
    cfg;
    ec =
      Entries.make ~name:"Ttree" ~reg ~records ~scheme:cfg.scheme ~entries_at (Counters.create ());
    sc = Scratch.create ();
    max_entries;
    min_internal = max 1 (max_entries - 2);
    root = null;
    n_nodes = 0;
    n_keys = 0;
    td = None;
  }

let scheme t = t.cfg.scheme
let record_store t = t.records
let count t = t.n_keys
let node_count t = t.n_nodes
let space_bytes t = Mem.live_bytes t.reg
let entry_capacity t = t.max_entries
let cnt t = t.ec.Entries.cnt
let deref_count t = (cnt t).Counters.derefs
let node_visits t = (cnt t).Counters.visits
let reset_counters t = Counters.reset (cnt t)

(* {2 Node accessors} *)

let num_keys t node = Mem.read_u16 t.reg node
let set_num_keys t node n = Mem.write_u16 t.reg node n
let node_height t node = if node = null then 0 else Mem.read_u8 t.reg (node + 2)
let set_node_height t node h = Mem.write_u8 t.reg (node + 2) h
let left t node = Mem.read_u64 t.reg (node + 8)
let right t node = Mem.read_u64 t.reg (node + 16)

(* The descent re-stores every level's child pointer; a store that
   would not change it is skipped, sparing its undo-log entry. *)
let set_left t node v = if left t node <> v then Mem.write_u64 t.reg (node + 8) v
let set_right t node v = if right t node <> v then Mem.write_u64 t.reg (node + 16) v
let height t = node_height t t.root
let is_leaf t node = left t node = null && right t node = null

let init_node t node =
  Mem.write_u16 t.reg node 0;
  set_node_height t node 1;
  set_left t node null;
  set_right t node null;
  t.n_nodes <- t.n_nodes + 1;
  node

let alloc_node t = init_node t (Mem.alloc t.reg ~align:64 t.cfg.node_bytes)

(* Bulk-load allocation: at the plan's target offset when one exists
   (blocked layouts), plain bump allocation otherwise. *)
let alloc_node_at t plan ~level ~index =
  match Layout.Placement.offset plan ~level ~index with
  | None -> alloc_node t
  | Some off -> init_node t (Mem.alloc_at t.reg ~off t.cfg.node_bytes)

let free_node t node =
  Mem.free t.reg node t.cfg.node_bytes;
  t.n_nodes <- t.n_nodes - 1

let rec_ptr t node i = Entries.rec_ptr t.ec node i
let entry_key t node i = Entries.entry_key t.ec node i
let is_partial t = Entries.is_partial t.ec

(* {2 Partial-key maintenance (§4.1)} — scheme arithmetic lives in
   {!module:Engine.Entries}; here only the base-key rules. *)

(* Recompute the partial key of entry [i]; [base] is the record of
   entry 0's base key, i.e. the parent node's leftmost entry ([null] =
   the virtual zero key, at the root). *)
let fix_pk t node i ~base =
  if is_partial t && node <> null then Entries.fix_pk t.ec node i ~n:(num_keys t node) ~base

(* After any change to [node]'s leftmost key or to its children's
   parentage, restore the §4.1 invariants: node.key[0] is based on the
   parent's key[0] ([base]), children's key[0] on node.key[0]. *)
let fix_pk0_and_children t node ~base =
  if is_partial t && node <> null then begin
    fix_pk t node 0 ~base;
    let k0 = rec_ptr t node 0 in
    if left t node <> null then fix_pk t (left t node) 0 ~base:k0;
    if right t node <> null then fix_pk t (right t node) 0 ~base:k0
  end

(* {2 Raw entry movement} *)

let blit_entries t ~src ~src_i ~dst ~dst_i ~n = Entries.blit_entries t.ec ~src ~src_i ~dst ~dst_i ~n
let write_entry t node i ~key ~rid = Entries.write_entry t.ec node i ~key ~rid

(* Insert an entry at position [i]; fixes the local partial keys of
   positions i and i+1 (entry 0 fixes, which need the parent's key, are
   the caller's job via [fix_pk0_and_children]). *)
let insert_at t node i ~key ~rid =
  let n = num_keys t node in
  blit_entries t ~src:node ~src_i:i ~dst:node ~dst_i:(i + 1) ~n:(n - i);
  write_entry t node i ~key ~rid;
  set_num_keys t node (n + 1);
  if i > 0 then fix_pk t node i ~base:null;
  fix_pk t node (i + 1) ~base:null

let remove_at t node i =
  let n = num_keys t node in
  blit_entries t ~src:node ~src_i:(i + 1) ~dst:node ~dst_i:i ~n:(n - i - 1);
  set_num_keys t node (n - 1);
  if i > 0 then fix_pk t node i ~base:null

(* {2 AVL rebalancing} *)

let update_height t node =
  let h = 1 + max (node_height t (left t node)) (node_height t (right t node)) in
  if node_height t node <> h then set_node_height t node h

let balance_factor t node = node_height t (left t node) - node_height t (right t node)

(* Rotations return the new subtree root.  Inside, the nodes whose
   parent changed get their entry-0 partial keys refreshed; the caller
   refreshes the returned root against its own leftmost key. *)
let rotate_right t z =
  Fault.point "ttree.rotate";
  let y = left t z in
  set_left t z (right t y);
  (* Mid-rotation: [z] has dropped its left child but [y] does not yet
     point at [z].  An injection here must unwind. *)
  Fault.point "ttree.rotate.mid";
  set_right t y z;
  update_height t z;
  update_height t y;
  if is_partial t then begin
    fix_pk t z 0 ~base:(rec_ptr t y 0);
    if left t z <> null then fix_pk t (left t z) 0 ~base:(rec_ptr t z 0)
  end;
  y

let rotate_left t z =
  Fault.point "ttree.rotate";
  let y = right t z in
  set_right t z (left t y);
  Fault.point "ttree.rotate.mid";
  set_left t y z;
  update_height t z;
  update_height t y;
  if is_partial t then begin
    fix_pk t z 0 ~base:(rec_ptr t y 0);
    if right t z <> null then fix_pk t (right t z) 0 ~base:(rec_ptr t z 0)
  end;
  y

(* Merge a half-leaf with its single child when the combined entries
   fit in one node.  AVL balance guarantees the child is a leaf. *)
let merge_half_leaf t node =
  let l = left t node and r = right t node in
  let child = if l <> null then l else r in
  let n = num_keys t node and cn = num_keys t child in
  if is_leaf t child && n + cn <= t.max_entries then begin
    Fault.point "ttree.merge";
    if l <> null then begin
      (* Prepend the left child's (smaller) entries. *)
      blit_entries t ~src:node ~src_i:0 ~dst:node ~dst_i:cn ~n;
      blit_entries t ~src:child ~src_i:0 ~dst:node ~dst_i:0 ~n:cn;
      set_left t node null;
      set_num_keys t node (n + cn);
      (* Seam: the old first entry now follows the child's last. *)
      fix_pk t node cn ~base:null
    end
    else begin
      blit_entries t ~src:child ~src_i:0 ~dst:node ~dst_i:n ~n:cn;
      set_right t node null;
      set_num_keys t node (n + cn);
      fix_pk t node n ~base:null
    end;
    free_node t child
  end

(* A T-tree special case: an inner node that becomes the subtree root
   through a rotation — or gains a second child — may hold very few
   entries (it can be a freshly created leaf).  Refill it so that no
   internal node stays below the occupancy minimum (Lehman–Carey's
   "special rotation").  Each pull takes the subtree's greatest lower
   bound — [remove_max] of the left child — which keeps the ordering
   invariants for any left-subtree shape; a plain entry blit from the
   left child is only sound when that child has no right subtree.  If
   the left subtree drains completely the node degrades to a (legal)
   half-leaf and the loop stops.  Mutually recursive with [rebalance]
   and the removal helpers it reuses. *)
let rec slide_fill t node =
  let slid = ref false in
  if node <> null then
    while left t node <> null && right t node <> null && num_keys t node < t.min_internal do
      Fault.point "ttree.slide";
      let l', (k, rid) = remove_max t (left t node) ~base:(rec_ptr t node 0) in
      set_left t node l';
      insert_at t node 0 ~key:k ~rid;
      slid := true
    done;
  !slid

and rebalance t node ~base =
  let bf = balance_factor t node in
  let node' =
    if bf > 1 then begin
      if balance_factor t (left t node) < 0 then begin
        set_left t node (rotate_left t (left t node));
        fix_pk t (left t node) 0 ~base:(rec_ptr t node 0)
      end;
      rotate_right t node
    end
    else if bf < -1 then begin
      if balance_factor t (right t node) > 0 then begin
        set_right t node (rotate_right t (right t node));
        fix_pk t (right t node) 0 ~base:(rec_ptr t node 0)
      end;
      rotate_left t node
    end
    else begin
      update_height t node;
      node
    end
  in
  let slid = slide_fill t node' in
  (* Refilling can shrink the left subtree: refresh the height and
     re-check the balance before publishing the new root. *)
  update_height t node';
  let node'' = if abs (balance_factor t node') > 1 then rebalance t node' ~base else node' in
  (* Only a rotation (a new subtree root, based on [base]) or a slide
     (a new key[0], the base of both children) re-bases an entry 0
     here; the callers refresh the entries they changed themselves. *)
  if is_partial t && (slid || node'' <> node) then fix_pk0_and_children t node'' ~base;
  node''

(* Lehman–Carey case analysis after removing an entry from a node:
   - internal (two children) below minimum occupancy: refill with the
     subtree's greatest lower bound (max of the left subtree);
   - half-leaf (one child): merge the child's entries in when they fit;
   - leaf left empty: splice the node out.
   [fix_after_removal] applies these rules and returns the replacement
   subtree root; the removal helpers use it on every node they drain. *)
and fix_after_removal t node ~base =
  let n = num_keys t node in
  let l = left t node and r = right t node in
  if n = 0 && l = null && r = null then begin
    free_node t node;
    null
  end
  else begin
    if l <> null && r <> null && n < t.min_internal then begin
      (* Internal: pull the greatest lower bound up into position 0. *)
      let l', (k, rid) = remove_max t l ~base:(rec_ptr t node 0) in
      set_left t node l';
      insert_at t node 0 ~key:k ~rid;
      fix_pk0_and_children t node ~base
    end;
    let l = left t node and r = right t node in
    if n > 0 && (l = null) <> (r = null) then merge_half_leaf t node;
    if num_keys t node = 0 then begin
      (* Still empty: node had exactly one child and no keys. *)
      let l = left t node and r = right t node in
      let repl = if l <> null then l else r in
      free_node t node;
      repl
    end
    else node
  end

(* Remove and return the greatest entry of the subtree. *)
and remove_max t node ~base =
  let n = num_keys t node in
  if right t node <> null then begin
    let r, kv = remove_max t (right t node) ~base:(rec_ptr t node 0) in
    set_right t node r;
    (rebalance t node ~base, kv)
  end
  else begin
    let kv = (entry_key t node (n - 1), rec_ptr t node (n - 1)) in
    remove_at t node (n - 1);
    let node' = fix_after_removal t node ~base in
    if node' = null then (null, kv)
    else begin
      fix_pk0_and_children t node' ~base;
      (rebalance t node' ~base, kv)
    end
  end

(* {2 Insert} *)

let new_leaf t ~key ~rid ~base =
  let node = alloc_node t in
  write_entry t node 0 ~key ~rid;
  set_num_keys t node 1;
  fix_pk t node 0 ~base;
  node

(* Insert [key] into the subtree's greatest-lower-bound position: the
   rightmost node (used for the evicted minimum of a full bounding
   node; the evicted key exceeds everything in this subtree). *)
let rec insert_max t node ~key ~rid ~base =
  if node = null then new_leaf t ~key ~rid ~base
  else begin
    (* A full node without a right child gets a new right leaf. *)
    (if right t node = null && num_keys t node < t.max_entries then
       insert_at t node (num_keys t node) ~key ~rid
     else set_right t node (insert_max t (right t node) ~key ~rid ~base:(rec_ptr t node 0)));
    rebalance t node ~base
  end

exception Duplicate

(* Exception safety: keep the scalar header, run under the arena undo
   journal, restore both on any escaping exception.  [Duplicate] /
   [Not_present] are raised before any mutation and handled inside the
   guarded operation, so they commit a no-op. *)
let header : t Engine.header =
  {
    get = (fun t i -> match i with 0 -> t.root | 1 -> t.n_nodes | 2 -> t.n_keys | _ -> 0);
    set =
      (fun t i v ->
        match i with 0 -> t.root <- v | 1 -> t.n_nodes <- v | 2 -> t.n_keys <- v | _ -> ());
  }

let guarded t op a b = Engine.guarded ~reg:t.reg ~cnt:(cnt t) header op t a b

(* Sign of [key] against the last of [node]'s [n] entries, once entry
   0 compared below it: the bounding test shared by insert, delete and
   seek.  A one-entry node reuses the head sign [c0]. *)
let last_sign t node key ~n ~c0 = if n = 1 then c0 else Entries.probe_sign t.ec node key (n - 1)

let rec insert_rec t node key rid ~base =
  if node = null then new_leaf t ~key ~rid ~base
  else begin
    let n = num_keys t node in
    let c0 = Entries.probe_sign t.ec node key 0 in
    if c0 = 0 then raise Duplicate
    else if c0 < 0 then begin
      (* A full node without a left child gets a new left leaf. *)
      if left t node = null && n < t.max_entries then begin
        insert_at t node 0 ~key ~rid;
        fix_pk0_and_children t node ~base
      end
      else set_left t node (insert_rec t (left t node) key rid ~base:(rec_ptr t node 0))
    end
    else begin
      let cl = last_sign t node key ~n ~c0 in
      if cl = 0 then raise Duplicate
      else if cl > 0 then begin
        if right t node = null && n < t.max_entries then insert_at t node n ~key ~rid
        else set_right t node (insert_rec t (right t node) key rid ~base:(rec_ptr t node 0))
      end
      else begin
        (* Bounding node: the key lies strictly between entries 0 and
           n - 1. *)
        let pos = Entries.search t.ec node key 1 (n - 1) in
        if pos < 0 then raise Duplicate;
        if n < t.max_entries then insert_at t node pos ~key ~rid
        else begin
          (* Full: evict the minimum to the left subtree (its greatest
             lower bound node), then insert. *)
          let ev_key = entry_key t node 0 and ev_rid = rec_ptr t node 0 in
          remove_at t node 0;
          insert_at t node (pos - 1) ~key ~rid;
          fix_pk0_and_children t node ~base;
          set_left t node
            (insert_max t (left t node) ~key:ev_key ~rid:ev_rid ~base:(rec_ptr t node 0))
        end
      end
    end;
    rebalance t node ~base
  end

let insert_op t key rid =
  match insert_rec t t.root key rid ~base:null with
  | root ->
      t.root <- root;
      t.n_keys <- t.n_keys + 1;
      true
  | exception Duplicate -> false

let insert t key ~rid =
  (match t.cfg.scheme with
  | Layout.Direct { key_len } when Bytes.length key <> key_len ->
      invalid_arg
        (Printf.sprintf "Ttree.insert: direct scheme expects %d-byte keys, got %d" key_len
           (Bytes.length key))
  | _ -> ());
  guarded t insert_op key rid

(* {2 Delete}

   The Lehman–Carey removal case analysis lives in [fix_after_removal]
   above (mutually recursive with [rebalance]); the helpers below walk
   to the key and apply it on every node they drain. *)

exception Not_present

let rec delete_rec t node key ~base =
  if node = null then raise Not_present
  else begin
    let n = num_keys t node in
    let c0 = Entries.probe_sign t.ec node key 0 in
    let node =
      if c0 < 0 then begin
        set_left t node (delete_rec t (left t node) key ~base:(rec_ptr t node 0));
        node
      end
      else if c0 > 0 && last_sign t node key ~n ~c0 > 0 then begin
        set_right t node (delete_rec t (right t node) key ~base:(rec_ptr t node 0));
        node
      end
      else begin
        let r = if c0 = 0 then lnot 0 else Entries.search t.ec node key 1 n in
        if r >= 0 then raise Not_present;
        remove_at t node (lnot r);
        (* The removal can change key[0] or replace the node by its
           child: re-base the survivor here.  Above this level only
           child pointers change, and each level re-based its own. *)
        let node = fix_after_removal t node ~base in
        fix_pk0_and_children t node ~base;
        node
      end
    in
    if node = null then null else rebalance t node ~base
  end

let delete_op t key () =
  match delete_rec t t.root key ~base:null with
  | root ->
      t.root <- root;
      t.n_keys <- t.n_keys - 1;
      true
  | exception Not_present -> false

let delete t key = guarded t delete_op key ()

(* {2 Lookup hooks}

   FINDTTREE (Fig. 7) is the engine's descent ({!module:Engine.Tgroup}):
   a sorted batch splits at every node into below / equal / above
   segments against the leftmost entry, and a single key is a one-probe
   batch.  Probes of one segment share their whole path, hence also the
   last-Gt-ancestor node — only the offset at that ancestor is
   per-probe state.  As in {!module:Btree}, every scheme's hooks are
   allocation-free: sign comparisons into the scratch arrays for the
   direct and indirect schemes; packed head comparisons and one
   mutable shifted [entry_ops], whose int fields receive FINDNODE's
   result, for the partial-key final in-ancestor search. *)

(* FINDTTREE's per-node step: compare against the leftmost entry and
   advance the probe's (rel, off) state; the sign steers the descent. *)
let[@pklint.hot] pk_classify t node slot =
  let sc = t.sc in
  let p =
    Entries.head_pk_cmp t.ec node sc.Scratch.keys.(slot) ~rel:sc.Scratch.rel.(slot)
      ~off:sc.Scratch.off.(slot)
  in
  match Key.packed_cmp p with
  | Key.Eq ->
      sc.Scratch.out.(slot) <- rec_ptr t node 0;
      0
  | Key.Lt ->
      sc.Scratch.rel.(slot) <- Key.Lt;
      sc.Scratch.off.(slot) <- Key.packed_off p;
      -1
  | Key.Gt ->
      sc.Scratch.rel.(slot) <- Key.Gt;
      sc.Scratch.off.(slot) <- Key.packed_off p;
      sc.Scratch.la.(slot) <- Key.packed_off p;
      1

(* The final search over entries [1..n) of the last Gt ancestor [la]
   (its leftmost key is the base), through the shifted [ops]. *)
let[@pklint.hot] pk_final t (ops : Node_search.entry_ops) la slot =
  let sc = t.sc in
  if la = null then sc.Scratch.out.(slot) <- -1
  else begin
    let key = sc.Scratch.keys.(slot) in
    sc.Scratch.node <- la;
    if sc.Scratch.probe != key then sc.Scratch.probe <- key;
    ops.num_keys <- num_keys t la - 1;
    let off0 = sc.Scratch.la.(slot) in
    if t.cfg.naive_search then Node_search.naive_find_node ops ~rel0:Key.Gt ~off0
    else Node_search.find_node ops ~rel0:Key.Gt ~off0;
    sc.Scratch.out.(slot) <- (if ops.low = ops.high then rec_ptr t la (ops.low + 1) else -1)
  end

let tdriver t =
  match t.td with
  | Some d -> d
  | None ->
      let sc = t.sc in
      let common classify final =
        {
          Tgroup.sc;
          cnt = cnt t;
          left = (fun node -> left t node);
          right = (fun node -> right t node);
          classify;
          final;
        }
      in
      let d =
        match t.cfg.scheme with
        | Layout.Direct _ | Layout.Indirect ->
            common
              (fun node slot ->
                let c = Entries.probe_sign t.ec node sc.Scratch.keys.(slot) 0 in
                if c = 0 then sc.Scratch.out.(slot) <- rec_ptr t node 0;
                c)
              (fun la slot ->
                sc.Scratch.out.(slot) <-
                  (if la = null then -1
                   else
                     Entries.found_rid t.ec la
                       (Entries.search t.ec la sc.Scratch.keys.(slot) 1 (num_keys t la))))
        | Layout.Partial _ ->
            (* One shifted entry_ops per tree, re-aimed via the scratch
               cursor. *)
            let ops = Entries.make_ops t.ec sc ~shift:1 in
            common
              (fun node slot -> pk_classify t node slot)
              (fun la slot -> pk_final t ops la slot)
      in
      t.td <- Some d;
      d

(* {2 Bottom-up bulk load}

   Cut the sorted entries into chunks of [fill * capacity] (clamped to
   [[min_internal, capacity]]) and build the balanced midpoint BST over
   the chunks.  Only the last chunk can be smaller than the internal
   minimum, and the midpoint construction always places the last chunk
   with no right child — a leaf or half-leaf, which carries no
   occupancy minimum (Lehman–Carey).  Partial keys follow §4.1: entry 0
   is based on the parent node's leftmost key, later entries on their
   in-node predecessor — all derived from sorted neighbours. *)

(* Chunk size and count shared by [load_sorted] and [load_shape]. *)
let chunking t ~fill n =
  let cap = t.max_entries in
  let c = max 1 (max t.min_internal (min cap (int_of_float (fill *. float_of_int cap)))) in
  (c, (n + c - 1) / c)

(* A recursion depth bound far above any balanced midpoint BST this
   arena can hold (depth <= log2 m + 1). *)
let max_depth = 64

(* Predict the BST level structure [load_sorted] will build.  A
   pre-order walk of the midpoint recursion visits each depth's nodes
   left to right, which is exactly the planner's per-level (BFS)
   enumeration: reserving child indices at the parent's visit and
   appending the node's own range at its visit keeps both sides in the
   same order. *)
let load_shape t ~fill entries =
  let _, m = chunking t ~fill (Array.length entries) in
  let acc = Array.make max_depth [] in
  let next_idx = Array.make max_depth 0 in
  let deepest = ref 0 in
  let rec walk clo chi d =
    if clo < chi then begin
      if !deepest < d then deepest := d;
      let mid = (clo + chi) / 2 in
      let nl = if clo < mid then 1 else 0 and nr = if mid + 1 < chi then 1 else 0 in
      let base = next_idx.(d + 1) in
      next_idx.(d + 1) <- base + nl + nr;
      acc.(d) <- (base, base + nl + nr) :: acc.(d);
      walk clo mid (d + 1);
      walk (mid + 1) chi (d + 1)
    end
  in
  walk 0 m 0;
  {
    Layout.shape_node_bytes = t.cfg.node_bytes;
    shape_levels = Array.init (!deepest + 1) (fun d -> Array.of_list (List.rev acc.(d)));
  }

(* Per-key admission check, run inside the loading pass. *)
let check_load_key t k =
  match t.cfg.scheme with
  | Layout.Direct { key_len } ->
      if Bytes.length k <> key_len then
        invalid_arg
          (Printf.sprintf "Ttree.bulk_load: direct scheme expects %d-byte keys, got %d" key_len
             (Bytes.length k))
  | Layout.Indirect | Layout.Partial _ -> ()

(* Each chunk is written, checked and encoded in one pass over its
   entries: entry [j >= 1] is based on entry [j - 1], so the comparison
   that encodes it is the order check of that pair; entry 0 is encoded
   against the parent's entry 0, and its pair with the previous
   chunk's last key is checked apart.  Before a chunk is encoded, the
   keys of the chunk built next are touched so their cache misses
   overlap.  No record is read. *)
let load_sorted t ~fill ~plan entries =
  let n = Array.length entries in
  let c, m = chunking t ~fill n in
  let key g = fst entries.(g) in
  let partial = is_partial t in
  (* Per-depth child-index counters mirroring [load_shape]'s walk, so
     node (depth, idx) lands on the same planner coordinate. *)
  let next_idx = Array.make max_depth 0 in
  (* Chunk [i] holds entries [i*c, min ((i+1)*c, n)).  [base]: global
     index of the parent's entry 0 (-1 = the virtual zero key);
     [after]: the chunk built right after this subtree (-1 = none). *)
  let rec build clo chi ~base ~after ~d ~idx =
    if clo >= chi then (null, 0)
    else begin
      let mid = (clo + chi) / 2 in
      let start = mid * c in
      let sz = min c (n - start) in
      let node = alloc_node_at t plan ~level:d ~index:idx in
      (* Pre-order: the left child's chunk is built next, else the
         right child's, else whatever follows this subtree. *)
      let right_after = if mid + 1 < chi then (mid + 1 + chi) / 2 else after in
      let next = if clo < mid then (clo + mid) / 2 else right_after in
      if next >= 0 then
        ignore (Sys.opaque_identity (Engine.touch_keys entries (next * c) ((next + 1) * c) 0));
      for j = 0 to sz - 1 do
        let g = start + j in
        let kg = key g in
        check_load_key t kg;
        write_entry t node j ~key:kg ~rid:(snd entries.(g));
        if j > 0 then Entries.load_after t.ec node j kg ~prev:(key (g - 1))
        else begin
          if g > 0 then Engine.check_ascending t.ec.Entries.name (key (g - 1)) kg;
          if partial then
            let len = Bytes.length kg in
            if base < 0 then Entries.encode_pk_initial t.ec node 0 kg ~len
            else
              let kb = key base in
              ignore
                (Entries.encode_pk t.ec node 0 kg ~len ~base:kb ~base_len:(Bytes.length kb) : int)
        end
      done;
      set_num_keys t node sz;
      let nl = if clo < mid then 1 else 0 and nr = if mid + 1 < chi then 1 else 0 in
      let cbase = next_idx.(d + 1) in
      next_idx.(d + 1) <- cbase + nl + nr;
      let l, hl = build clo mid ~base:start ~after:right_after ~d:(d + 1) ~idx:cbase in
      let r, hr = build (mid + 1) chi ~base:start ~after ~d:(d + 1) ~idx:(cbase + nl) in
      set_left t node l;
      set_right t node r;
      let h = 1 + max hl hr in
      set_node_height t node h;
      (node, h)
    end
  in
  let root, _ = build 0 m ~base:(-1) ~after:(-1) ~d:0 ~idx:0 in
  t.root <- root;
  t.n_keys <- n

(* {2 Cursor primitives}

   A frame (node, i) means: emit entries [i..), then walk the node's
   right subtree, then pop. *)

let rec push_spine t node stack =
  if node = null then stack else push_spine t (left t node) ((node, 0) :: stack)

let rec seek_from t from node stack =
  if node = null then stack
  else
    let n = num_keys t node in
    let c0 = Entries.probe_sign t.ec node from 0 in
    if c0 < 0 then seek_from t from (left t node) ((node, 0) :: stack)
    else if c0 > 0 && last_sign t node from ~n ~c0 > 0 then seek_from t from (right t node) stack
    else
      let r = if c0 = 0 then lnot 0 else Entries.search t.ec node from 1 n in
      (node, if r < 0 then lnot r else r) :: stack

(* {2 Validation} *)

let validate t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let total = ref 0 in
  let nodes = ref 0 in
  let rec walk node ~lo ~hi ~base =
    if node = null then 0
    else begin
      incr nodes;
      let n = num_keys t node in
      if n = 0 then fail "node %d empty" node;
      if n > t.max_entries then fail "node %d overfull" node;
      (* Only two-child (internal) nodes carry the occupancy
         guarantee; half-leaves merge with their child when possible
         instead (Lehman–Carey). *)
      if left t node <> null && right t node <> null && n < t.min_internal then
        fail "internal node %d underfull: %d < %d" node n t.min_internal;
      total := !total + n;
      let keys = Array.init n (fun i -> entry_key t node i) in
      Array.iteri
        (fun i k ->
          if i > 0 && Key.compare keys.(i - 1) k >= 0 then
            fail "node %d out of order at %d" node i;
          (match lo with
          | Some b when Key.compare k b <= 0 -> fail "node %d entry %d below range" node i
          | _ -> ());
          (match hi with
          | Some b when Key.compare k b >= 0 -> fail "node %d entry %d above range" node i
          | _ -> ());
          if is_partial t then Entries.check_pk t.ec node i ~base)
        keys;
      let k0 = rec_ptr t node 0 in
      let hl = walk (left t node) ~lo ~hi:(Some keys.(0)) ~base:k0 in
      let hr = walk (right t node) ~lo:(Some keys.(n - 1)) ~hi ~base:k0 in
      if abs (hl - hr) > 1 then fail "node %d unbalanced: %d vs %d" node hl hr;
      let h = 1 + max hl hr in
      if h <> node_height t node then
        fail "node %d stored height %d, actual %d" node (node_height t node) h;
      h
    end
  in
  ignore (walk t.root ~lo:None ~hi:None ~base:null);
  if !total <> t.n_keys then fail "key count mismatch: walked %d, recorded %d" !total t.n_keys;
  if !nodes <> t.n_nodes then fail "node count mismatch: walked %d, recorded %d" !nodes t.n_nodes

(* Free every node and reset the header to the empty-tree state (the
   compaction teardown).  Arena frees go through the region's undo
   journal, so an enclosing engine guard rolls a partial clear back. *)
let clear t =
  let rec free_subtree node =
    if node <> null then begin
      free_subtree (left t node);
      free_subtree (right t node);
      free_node t node
    end
  in
  free_subtree t.root;
  t.root <- null;
  t.n_keys <- 0

(* {2 Engine plug-in} *)

module Structure = struct
  type nonrec t = t

  let name = "Ttree"
  let region t = t.reg
  let counters = cnt
  let scratch t = t.sc
  let root t = t.root
  let header = header
  let insert = insert
  let delete = delete

  let prepare_batch t keys n =
    Scratch.grow_perm t.sc n;
    Scratch.grow_sign t.sc n;
    if is_partial t then Scratch.seed_findnode t.sc (Entries.granularity t.ec) keys n

  let descend t n = Tgroup.drive (tdriver t) t.root null 0 n
  let descend_one t slot =
    if is_partial t then
      Scratch.seed_findnode t.sc (Entries.granularity t.ec) t.sc.Scratch.keys (slot + 1);
    Tgroup.drive1 (tdriver t) t.root null slot

  let layout_policy t = t.cfg.layout
  let load_shape = load_shape
  let load_sorted = load_sorted
  let clear = clear

  let cursor_start t = function
    | None -> push_spine t t.root []
    | Some from -> seek_from t from t.root []

  let frame_entries = num_keys
  let frame_entry t node i = (entry_key t node i, rec_ptr t node i)
  let advance _ node i rest = (node, i + 1) :: rest
  let exhausted t node rest = push_spine t (right t node) rest
  let records t = t.records

  (* Header clone over the snapshot-view regions: pinned scalar state,
     fresh caches/scratch so nothing reaches back into the live tree. *)
  let snapshot_view t ~reg ~records =
    {
      t with
      reg;
      records;
      ec =
        Entries.make ~name:"Ttree" ~reg ~records ~scheme:t.cfg.scheme ~entries_at
          (Counters.create ());
      sc = Scratch.create ();
      td = None;
    }

  let count = count
  let height = height
  let node_count = node_count
  let space_bytes = space_bytes
  let validate = validate
end

include Engine.Make (Structure)
