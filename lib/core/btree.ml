module Mem = Pk_mem.Mem
module Fault = Pk_fault.Fault
module Key = Pk_keys.Key
module Record_store = Pk_records.Record_store
module Node_search = Pk_partialkey.Node_search
module Counters = Engine.Counters
module Scratch = Engine.Scratch
module Entries = Engine.Entries
module Group = Engine.Group
module Obs = Pk_obs.Obs

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
  leaf_max : int;
  internal_max : int;
  child_base : int; (* offset of the child-pointer array within a node *)
  mutable root : int;
  mutable tree_height : int;
  mutable n_nodes : int;
  mutable n_keys : int;
  mutable router : Group.router option;
}

let null = Pk_arena.Arena.null

(* Node header: [0:num_keys u16][2:is_leaf u8][3..7:pad]. *)
let entries_at = 8

let create mem records cfg =
  let esz = Layout.entry_size cfg.scheme in
  let leaf_max = (cfg.node_bytes - entries_at) / esz in
  let internal_max = (cfg.node_bytes - entries_at - 8) / (esz + 8) in
  if internal_max < 3 then
    invalid_arg
      (Printf.sprintf
         "Btree.create: node of %d bytes holds only %d internal entries under scheme %s; use \
          larger nodes"
         cfg.node_bytes internal_max (Layout.scheme_tag cfg.scheme));
  let reg =
    Mem.new_region mem ~initial_capacity:(1 lsl 20) ~name:("btree-" ^ Layout.scheme_tag cfg.scheme)
      ()
  in
  {
    reg;
    records;
    cfg;
    ec =
      Entries.make ~name:"Btree" ~reg ~records ~scheme:cfg.scheme ~entries_at (Counters.create ());
    sc = Scratch.create ();
    leaf_max;
    internal_max;
    child_base = entries_at + (internal_max * esz);
    root = null;
    tree_height = 0;
    n_nodes = 0;
    n_keys = 0;
    router = None;
  }

let scheme t = t.cfg.scheme
let record_store t = t.records
let count t = t.n_keys
let height t = t.tree_height
let node_count t = t.n_nodes
let space_bytes t = Mem.live_bytes t.reg
let leaf_capacity t = t.leaf_max
let internal_capacity t = t.internal_max
let cnt t = t.ec.Entries.cnt
let deref_count t = (cnt t).Counters.derefs
let node_visits t = (cnt t).Counters.visits
let reset_counters t = Counters.reset (cnt t)

let[@pklint.hot] route_ev t node ci =
  Obs.Trace.emit (cnt t).Counters.trace Obs.Trace.k_route node ci

(* {2 Node accessors} *)

let num_keys t node = Mem.read_u16 t.reg node
let set_num_keys t node n = Mem.write_u16 t.reg node n
let is_leaf t node = Mem.read_u8 t.reg (node + 2) = 1
let child t node i = Mem.read_u64 t.reg (node + t.child_base + (8 * i))
let set_child t node i v = Mem.write_u64 t.reg (node + t.child_base + (8 * i)) v
let capacity t node = if is_leaf t node then t.leaf_max else t.internal_max
let min_keys t node = (capacity t node - 1) / 2

let init_node t node ~leaf =
  Mem.write_u16 t.reg node 0;
  Mem.write_u8 t.reg (node + 2) (if leaf then 1 else 0);
  t.n_nodes <- t.n_nodes + 1;
  node

let alloc_node t ~leaf = init_node t (Mem.alloc t.reg ~align:64 t.cfg.node_bytes) ~leaf

(* Bulk-load allocation: at the plan's target offset when one exists
   (blocked layouts), plain bump allocation otherwise. *)
let alloc_node_at t plan ~level ~index ~leaf =
  match Layout.Placement.offset plan ~level ~index with
  | None -> alloc_node t ~leaf
  | Some off -> init_node t (Mem.alloc_at t.reg ~off t.cfg.node_bytes) ~leaf

let free_node t node =
  Mem.free t.reg node t.cfg.node_bytes;
  t.n_nodes <- t.n_nodes - 1

let rec_ptr t node i = Entries.rec_ptr t.ec node i
let entry_key t node i = Entries.entry_key t.ec node i
let is_partial t = Entries.is_partial t.ec

(* {2 Partial-key maintenance} — scheme arithmetic lives in
   {!module:Engine.Entries}; here only the base-key rules of §4.2. *)

let fix_pk t node i ~base =
  if is_partial t then Entries.fix_pk t.ec node i ~n:(num_keys t node) ~base

(* Refresh pk(0) along the ptr[0] chain below [node] (inclusive):
   every node on it inherits the same base (§4.2). *)
let rec refresh_chain t node ~base =
  if node <> null && is_partial t then begin
    fix_pk t node 0 ~base;
    if not (is_leaf t node) then refresh_chain t (child t node 0) ~base
  end

(* {2 Raw entry movement} *)

let blit_entries t ~src ~src_i ~dst ~dst_i ~n = Entries.blit_entries t.ec ~src ~src_i ~dst ~dst_i ~n

let blit_children t ~src ~src_i ~dst ~dst_i ~n =
  if n > 0 then
    if src = dst then
      Mem.move t.reg
        ~src_off:(src + t.child_base + (8 * src_i))
        ~dst_off:(dst + t.child_base + (8 * dst_i))
        ~len:(n * 8)
    else
      let tmp = Mem.read_bytes t.reg ~off:(src + t.child_base + (8 * src_i)) ~len:(n * 8) in
      Mem.write_bytes t.reg ~off:(dst + t.child_base + (8 * dst_i)) ~src:tmp ~src_off:0 ~len:(n * 8)

let write_entry t node i ~key ~rid = Entries.write_entry t.ec node i ~key ~rid

(* Make room at position [i] (entries [i..n) shift right); caller sets
   the new entry and bumps num_keys. *)
let open_entry_gap t node i =
  let n = num_keys t node in
  blit_entries t ~src:node ~src_i:i ~dst:node ~dst_i:(i + 1) ~n:(n - i)

let open_child_gap t node i =
  let n = num_keys t node in
  (* n+1 children exist; shift [i..n] right. *)
  blit_children t ~src:node ~src_i:i ~dst:node ~dst_i:(i + 1) ~n:(n + 1 - i)

let remove_entry t node i =
  let n = num_keys t node in
  blit_entries t ~src:node ~src_i:(i + 1) ~dst:node ~dst_i:i ~n:(n - i - 1);
  set_num_keys t node (n - 1)

let remove_child t node i =
  let n = num_keys t node in
  (* called after the entry removal: n is already decremented, n+2
     children exist before removal. *)
  blit_children t ~src:node ~src_i:(i + 1) ~dst:node ~dst_i:i ~n:(n + 1 - i)

(* Position search on the update paths — full-key binary search. *)
let locate t node key = Entries.locate t.ec node ~n:(num_keys t node) key

(* {2 Insert} *)

(* Split the full child at [ci] of [parent]; the median moves up to
   parent position [ci].  Partial keys: only the two parent entries
   around the new separator change (§4.2); the right half's leftmost
   key keeps the median as base, as before the split. *)
let split_child t parent ci =
  Fault.point "btree.split";
  let c = child t parent ci in
  let n = num_keys t c in
  let m = n / 2 in
  let right = alloc_node t ~leaf:(is_leaf t c) in
  let right_n = n - m - 1 in
  blit_entries t ~src:c ~src_i:(m + 1) ~dst:right ~dst_i:0 ~n:right_n;
  if not (is_leaf t c) then blit_children t ~src:c ~src_i:(m + 1) ~dst:right ~dst_i:0 ~n:(n - m);
  set_num_keys t right right_n;
  set_num_keys t c m;
  (* Mid-split: the child is halved but the parent does not yet know
     about the new right node.  An injection here must unwind. *)
  Fault.point "btree.split.mid";
  open_entry_gap t parent ci;
  open_child_gap t parent (ci + 1);
  (* The separator entry is a verbatim copy of the median entry (record
     pointer, inline key bytes); its pk is recomputed below. *)
  blit_entries t ~src:c ~src_i:m ~dst:parent ~dst_i:ci ~n:1;
  set_child t parent (ci + 1) right;
  set_num_keys t parent (num_keys t parent + 1)

let fix_pk_after_separator t parent ci ~base =
  if is_partial t then begin
    fix_pk t parent ci ~base;
    fix_pk t parent (ci + 1) ~base
  end

let rec insert_nonfull t node key rid ~base =
  let pos, found = locate t node key in
  if found then false
  else if is_leaf t node then begin
    open_entry_gap t node pos;
    write_entry t node pos ~key ~rid;
    set_num_keys t node (num_keys t node + 1);
    fix_pk t node pos ~base;
    fix_pk t node (pos + 1) ~base;
    true
  end
  else begin
    let pos = ref pos in
    let c = child t node !pos in
    let descend_dup = ref false in
    if num_keys t c = capacity t c then begin
      split_child t node !pos;
      fix_pk_after_separator t node !pos ~base;
      let c', _ = Key.compare_detail key (entry_key t node !pos) in
      match c' with
      | Key.Eq -> descend_dup := true
      | Key.Gt -> incr pos
      | Key.Lt -> ()
    end;
    if !descend_dup then false
    else
      let child_base = if !pos = 0 then base else Some (entry_key t node (!pos - 1)) in
      insert_nonfull t (child t node !pos) key rid ~base:child_base
  end

let save t = (t.root, t.tree_height, t.n_nodes, t.n_keys)

let restore t (root, h, nn, nk) =
  t.root <- root;
  t.tree_height <- h;
  t.n_nodes <- nn;
  t.n_keys <- nk

let guarded t f =
  Engine.guarded ~reg:t.reg ~cnt:(cnt t) ~save:(fun () -> save t) ~restore:(restore t) f

let insert t key ~rid =
  (match t.cfg.scheme with
  | Layout.Direct { key_len } when Bytes.length key <> key_len ->
      invalid_arg
        (Printf.sprintf "Btree.insert: direct scheme expects %d-byte keys, got %d" key_len
           (Bytes.length key))
  | _ -> ());
  guarded t (fun () ->
      if t.root = null then begin
        t.root <- alloc_node t ~leaf:true;
        t.tree_height <- 1
      end;
      if num_keys t t.root = capacity t t.root then begin
        let new_root = alloc_node t ~leaf:false in
        set_child t new_root 0 t.root;
        split_child t new_root 0;
        fix_pk_after_separator t new_root 0 ~base:None;
        t.root <- new_root;
        t.tree_height <- t.tree_height + 1
      end;
      let ok = insert_nonfull t t.root key rid ~base:None in
      if ok then t.n_keys <- t.n_keys + 1;
      ok)

(* {2 Lookup hooks}

   FINDBTREE (Fig. 8) is the engine's descent ({!module:Engine.Group}):
   a batch is sorted and descended as contiguous per-child runs, a
   single key as a one-probe batch; the router below supplies only the
   per-probe in-node resolution.  Every scheme's hooks are
   allocation-free: the direct and indirect schemes use sign-only
   comparisons ({!val:Mem.compare_sign}); the partial-key path reuses
   one mutable {!type:Node_search.entry_ops} re-aimed at each
   (node, probe), whose int fields receive FINDNODE's result, and every
   comparison returns a packed int. *)

(* Binary search for [probe]; [lnot pos] (negative) encodes an exact
   match at [pos], a non-negative result is the child slot. *)
let[@pklint.hot] rec plain_locate t node probe lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    let c = Entries.probe_sign t.ec node probe mid in
    if c = 0 then lnot mid
    else if c < 0 then plain_locate t node probe lo mid
    else plain_locate t node probe (mid + 1) hi

(* Re-aim the shared ops at (node, probe) and run FINDNODE from the
   probe's accumulated descent state; the result lands in [ops]. *)
let[@pklint.hot] pk_find t (ops : Node_search.entry_ops) node n slot =
  let sc = t.sc in
  let key = sc.Scratch.keys.(slot) in
  sc.Scratch.node <- node;
  (* A probe keeps its key all the way down: one write barrier per
     descent, not per node. *)
  if sc.Scratch.probe != key then sc.Scratch.probe <- key;
  ops.num_keys <- n;
  let rel0 = sc.Scratch.rel.(slot) and off0 = sc.Scratch.off.(slot) in
  if t.cfg.naive_search then Node_search.naive_find_node ops ~rel0 ~off0
  else Node_search.find_node ops ~rel0 ~off0

let[@pklint.hot] pk_route t (ops : Node_search.entry_ops) node n slot =
  pk_find t ops node n slot;
  let sc = t.sc in
  if ops.low = ops.high then begin
    sc.Scratch.out.(slot) <- rec_ptr t node ops.low;
    -1
  end
  else begin
    (* FINDBTREE child-state update (Fig. 8). *)
    if ops.low <> -1 then sc.Scratch.rel.(slot) <- Key.Gt;
    sc.Scratch.off.(slot) <- ops.off_low;
    route_ev t node ops.high;
    child t node ops.high
  end

let[@pklint.hot] pk_leaf_probe t (ops : Node_search.entry_ops) node n slot =
  pk_find t ops node n slot;
  t.sc.Scratch.out.(slot) <- (if ops.low = ops.high then rec_ptr t node ops.low else -1)

let router t =
  match t.router with
  | Some r -> r
  | None ->
      let sc = t.sc in
      let common route leaf_probe =
        {
          Group.sc;
          cnt = cnt t;
          is_leaf = (fun node -> is_leaf t node);
          num_keys = (fun node -> num_keys t node);
          route;
          leaf_probe;
        }
      in
      let r =
        match t.cfg.scheme with
        | Layout.Direct _ | Layout.Indirect ->
            common
              (fun node n slot ->
                let r = plain_locate t node sc.Scratch.keys.(slot) 0 n in
                if r < 0 then begin
                  sc.Scratch.out.(slot) <- rec_ptr t node (lnot r);
                  -1
                end
                else begin
                  route_ev t node r;
                  child t node r
                end)
              (fun node n slot ->
                let r = plain_locate t node sc.Scratch.keys.(slot) 0 n in
                sc.Scratch.out.(slot) <- (if r < 0 then rec_ptr t node (lnot r) else -1))
        | Layout.Partial _ ->
            (* One entry_ops per tree, re-aimed via the scratch cursor. *)
            let ops = Entries.make_ops t.ec sc ~shift:0 in
            common
              (fun node n slot -> pk_route t ops node n slot)
              (fun node n slot -> pk_leaf_probe t ops node n slot)
      in
      t.router <- Some r;
      r

(* {2 Delete} — CLRS-style: every child entered during the descent is
   first brought above the minimum, so underflow never propagates
   upward and partial-key repairs stay local. *)

(* Left sibling lends its last entry: it moves up to parent[ci-1],
   whose old occupant moves down to the front of child [ci]. *)
let borrow_from_left t parent ci ~base =
  Fault.point "btree.borrow";
  let c = child t parent ci and ls = child t parent (ci - 1) in
  let ln = num_keys t ls and cn = num_keys t c in
  open_entry_gap t c 0;
  blit_entries t ~src:parent ~src_i:(ci - 1) ~dst:c ~dst_i:0 ~n:1;
  if not (is_leaf t c) then begin
    open_child_gap t c 0;
    set_child t c 0 (child t ls ln)
  end;
  set_num_keys t c (cn + 1);
  blit_entries t ~src:ls ~src_i:(ln - 1) ~dst:parent ~dst_i:(ci - 1) ~n:1;
  set_num_keys t ls (ln - 1);
  if is_partial t then begin
    fix_pk t parent (ci - 1) ~base;
    fix_pk t parent ci ~base;
    fix_pk t c 0 ~base:(Some (entry_key t parent (ci - 1)));
    fix_pk t c 1 ~base:None
  end

(* Right sibling lends its first entry via parent[ci]. *)
let borrow_from_right t parent ci ~base =
  Fault.point "btree.borrow";
  let c = child t parent ci and rs = child t parent (ci + 1) in
  let cn = num_keys t c in
  blit_entries t ~src:parent ~src_i:ci ~dst:c ~dst_i:cn ~n:1;
  if not (is_leaf t c) then set_child t c (cn + 1) (child t rs 0);
  set_num_keys t c (cn + 1);
  blit_entries t ~src:rs ~src_i:0 ~dst:parent ~dst_i:ci ~n:1;
  remove_entry t rs 0;
  if not (is_leaf t rs) then remove_child t rs 0;
  if is_partial t then begin
    fix_pk t parent ci ~base;
    fix_pk t parent (ci + 1) ~base;
    fix_pk t c cn ~base:None;
    fix_pk t rs 0 ~base:(Some (entry_key t parent ci))
  end

(* Merge child [j], parent entry [j] and child [j+1] into child [j]. *)
let merge_children t parent j ~base =
  Fault.point "btree.merge";
  let l = child t parent j and r = child t parent (j + 1) in
  let ln = num_keys t l and rn = num_keys t r in
  blit_entries t ~src:parent ~src_i:j ~dst:l ~dst_i:ln ~n:1;
  blit_entries t ~src:r ~src_i:0 ~dst:l ~dst_i:(ln + 1) ~n:rn;
  if not (is_leaf t l) then blit_children t ~src:r ~src_i:0 ~dst:l ~dst_i:(ln + 1) ~n:(rn + 1);
  set_num_keys t l (ln + 1 + rn);
  (* Mid-merge: both halves live in [l] but the parent still points at
     the absorbed right node. *)
  Fault.point "btree.merge.mid";
  remove_entry t parent j;
  remove_child t parent (j + 1);
  free_node t r;
  if is_partial t then begin
    fix_pk t l ln ~base:None;
    (* The right half's first entry keeps the separator as base — its
       copied pk is already correct.  The parent entry that slid into
       position [j] has a new predecessor. *)
    fix_pk t parent j ~base
  end;
  l

(* Ensure child [ci] of [parent] has more than the minimum number of
   keys, repairing via borrow or merge.  Returns the (possibly merged)
   child index to descend into. *)
let reinforce_child t parent ci ~base =
  let c = child t parent ci in
  if num_keys t c > min_keys t c then ci
  else
    let n = num_keys t parent in
    if ci > 0 && num_keys t (child t parent (ci - 1)) > min_keys t (child t parent (ci - 1))
    then begin
      borrow_from_left t parent ci ~base;
      ci
    end
    else if ci < n && num_keys t (child t parent (ci + 1)) > min_keys t (child t parent (ci + 1))
    then begin
      borrow_from_right t parent ci ~base;
      ci
    end
    else if ci > 0 then begin
      ignore (merge_children t parent (ci - 1) ~base);
      ci - 1
    end
    else begin
      ignore (merge_children t parent ci ~base);
      ci
    end

let rec min_entry t node =
  if is_leaf t node then (entry_key t node 0, rec_ptr t node 0)
  else min_entry t (child t node 0)

let rec max_entry t node =
  let n = num_keys t node in
  if is_leaf t node then (entry_key t node (n - 1), rec_ptr t node (n - 1))
  else max_entry t (child t node n)

(* Precondition: [node] has more than [min_keys] entries unless it is
   the root. *)
let rec delete_rec t node key ~base =
  let pos, found = locate t node key in
  if is_leaf t node then
    if not found then false
    else begin
      remove_entry t node pos;
      fix_pk t node pos ~base;
      true
    end
  else if found then begin
    let lc = child t node pos and rc = child t node (pos + 1) in
    if num_keys t lc > min_keys t lc then begin
      (* Replace with the predecessor and delete it below. *)
      let pred_key, pred_rid = max_entry t lc in
      write_entry t node pos ~key:pred_key ~rid:pred_rid;
      fix_pk t node pos ~base;
      fix_pk t node (pos + 1) ~base;
      let ok =
        delete_rec t lc pred_key
          ~base:(if pos = 0 then base else Some (entry_key t node (pos - 1)))
      in
      assert ok;
      (* The right subtree's leftmost chain is based on entry [pos],
         whose value changed. *)
      refresh_chain t (child t node (pos + 1)) ~base:(Some pred_key);
      true
    end
    else if num_keys t rc > min_keys t rc then begin
      (* Replace with the successor (§4.2's description). *)
      let succ_key, succ_rid = min_entry t rc in
      write_entry t node pos ~key:succ_key ~rid:succ_rid;
      fix_pk t node pos ~base;
      fix_pk t node (pos + 1) ~base;
      let ok = delete_rec t rc succ_key ~base:(Some succ_key) in
      assert ok;
      refresh_chain t (child t node (pos + 1)) ~base:(Some succ_key);
      true
    end
    else begin
      (* Both neighbours minimal: merge around the key and recurse. *)
      let merged = merge_children t node pos ~base in
      delete_rec t merged key ~base:(if pos = 0 then base else Some (entry_key t node (pos - 1)))
    end
  end
  else begin
    let ci = reinforce_child t node pos ~base in
    (* Repairs may have moved entries; recompute the descent position. *)
    let pos', found' = locate t node key in
    if found' then delete_rec t node key ~base
    else begin
      ignore ci;
      let child_base = if pos' = 0 then base else Some (entry_key t node (pos' - 1)) in
      delete_rec t (child t node pos') key ~base:child_base
    end
  end

let delete t key =
  if t.root = null then false
  else
    guarded t (fun () ->
        let ok = delete_rec t t.root key ~base:None in
        if ok then t.n_keys <- t.n_keys - 1;
        (* Shrink the root when it empties.  Not gated on [ok]: the
           preemptive rebalancing of the descent can merge the root's
           only two children even when the key then turns out to be
           absent. *)
        if num_keys t t.root = 0 then
          if is_leaf t t.root then begin
            free_node t t.root;
            t.root <- null;
            t.tree_height <- 0
          end
          else begin
            let only = child t t.root 0 in
            free_node t t.root;
            t.root <- only;
            t.tree_height <- t.tree_height - 1;
            refresh_chain t t.root ~base:None
          end;
        ok)

(* {2 Bottom-up bulk load}

   Build the tree level by level from a sorted entry array: leaves are
   packed to [fill * capacity] (clamped to [[min_keys, capacity]]), one
   entry between adjacent nodes is promoted as the next level's
   separator, and so on until a single root remains.  Partial keys are
   derived from sorted neighbours (Theorem 3.1): within a node entry
   [i]'s base is entry [i - 1]; entry 0's base is the key immediately
   preceding the node's subtree in sorted order — exactly the §4.2
   base rules, with no per-key root-to-leaf insertion. *)

(* Node count and entry distribution for one level holding [s] items:
   aim at [fill * capacity] entries per node, never exceed capacity,
   and lower the count again only while every node stays at or above
   the B-tree minimum.  Node [i] gets [q + (if i < r then 1 else 0)]
   entries.  Shared by [load_sorted] and [load_shape], which must
   agree exactly. *)
let split_level ~cap ~minn ~fill s =
  let target =
    let tgt = int_of_float (fill *. float_of_int cap) in
    max (max 1 minn) (min cap tgt)
  in
  let k = ref (if s <= target then 1 else (s + target) / (target + 1)) in
  while s / !k > cap do
    incr k
  done;
  while !k > 1 && (s - (!k - 1)) / !k < minn && s / (!k - 1) <= cap do
    decr k
  done;
  let k = !k in
  let total = s - (k - 1) in
  (k, total / k, total mod k)

(* Predict the level structure [load_sorted] will build: same split
   arithmetic, no bytes touched.  Levels come out leaves-first and are
   reversed into the planner's root-first orientation; internal node
   [i]'s children are the contiguous run its [sz + 1] child slots
   consume. *)
let load_shape t ~fill entries =
  let rec go s ~leaf acc =
    let cap = if leaf then t.leaf_max else t.internal_max in
    let minn = (cap - 1) / 2 in
    let k, q, r = split_level ~cap ~minn ~fill s in
    let ranges =
      if leaf then Array.make k (0, 0)
      else begin
        let kid = ref 0 in
        Array.init k (fun i ->
            let sz = q + if i < r then 1 else 0 in
            let lo = !kid in
            kid := !kid + sz + 1;
            (lo, !kid))
      end
    in
    let acc = ranges :: acc in
    if k = 1 then acc else go (k - 1) ~leaf:false acc
  in
  {
    Layout.shape_node_bytes = t.cfg.node_bytes;
    shape_levels = Array.of_list (go (Array.length entries) ~leaf:true []);
  }

let load_sorted t ~fill ~plan entries =
  let n = Array.length entries in
  let key i = fst entries.(i) in
  let rid i = snd entries.(i) in
  (* Root-first planner level of the nodes built at build height
     [levels] (1 = leaves).  Meaningless under the flat plan, whose
     [offset] ignores it. *)
  let nlv = Layout.Placement.level_count plan in
  (* [items]: global entry indices placed at this level; [kids]:
     nodes of the level below; [kid_lo]: global index of each
     child subtree's minimum (for entry-0 base derivation). *)
  let rec build_level ~levels items kids kid_lo =
    let s = Array.length items in
    let leaf = Array.length kids = 0 in
    let cap = if leaf then t.leaf_max else t.internal_max in
    let minn = (cap - 1) / 2 in
    let k, q, r = split_level ~cap ~minn ~fill s in
    let nodes = Array.make k null in
    let los = Array.make k 0 in
    let next_items = Array.make (max 0 (k - 1)) 0 in
    let pos = ref 0 and kid = ref 0 in
    for i = 0 to k - 1 do
      let sz = q + if i < r then 1 else 0 in
      let node = alloc_node_at t plan ~level:(nlv - levels) ~index:i ~leaf in
      nodes.(i) <- node;
      for j = 0 to sz - 1 do
        let g = items.(!pos + j) in
        write_entry t node j ~key:(key g) ~rid:(rid g)
      done;
      set_num_keys t node sz;
      if not leaf then
        for j = 0 to sz do
          set_child t node j kids.(!kid + j)
        done;
      let lo_g = if leaf then items.(!pos) else kid_lo.(!kid) in
      los.(i) <- lo_g;
      if is_partial t then begin
        fix_pk t node 0 ~base:(if lo_g = 0 then None else Some (key (lo_g - 1)));
        for j = 1 to sz - 1 do
          fix_pk t node j ~base:None
        done
      end;
      pos := !pos + sz;
      kid := !kid + sz + 1;
      if i < k - 1 then begin
        next_items.(i) <- items.(!pos);
        incr pos
      end
    done;
    if k = 1 then begin
      t.root <- nodes.(0);
      t.tree_height <- levels
    end
    else build_level ~levels:(levels + 1) next_items nodes los
  in
  build_level ~levels:1 (Array.init n (fun i -> i)) [||] [||];
  t.n_keys <- n

(* {2 Cursor primitives}

   Frames are (node, next_entry); the left spine below a frame is
   pushed so the deepest node is on top. *)

let rec push_spine t node stack =
  if node = null then stack
  else if is_leaf t node then (node, 0) :: stack
  else push_spine t (child t node 0) ((node, 0) :: stack)

let rec seek_from t from node stack =
  if node = null then stack
  else
    let pos, found = locate t node from in
    let frame = (node, pos) in
    if found || is_leaf t node then frame :: stack
    else seek_from t from (child t node pos) (frame :: stack)

(* {2 Validation} *)

let validate t =
  let fail fmt = Printf.ksprintf failwith fmt in
  if t.root = null then begin
    if t.n_keys <> 0 then fail "empty root but %d keys" t.n_keys;
    if t.n_nodes <> 0 then fail "empty root but %d nodes" t.n_nodes
  end
  else begin
    let total = ref 0 in
    let nodes = ref 0 in
    let leaf_depth = ref (-1) in
    (* [lo]/[hi]: exclusive bounds; [base]: base key for entry 0. *)
    let rec walk node depth ~lo ~hi ~base =
      incr nodes;
      let n = num_keys t node in
      if node <> t.root && n < min_keys t node then
        fail "node %d underfull: %d < %d" node n (min_keys t node);
      if n > capacity t node then fail "node %d overfull" node;
      if node = t.root && n = 0 then fail "empty root node";
      total := !total + n;
      if is_leaf t node then
        if !leaf_depth = -1 then leaf_depth := depth
        else if !leaf_depth <> depth then fail "uneven leaf depth %d vs %d" depth !leaf_depth;
      let keys = Array.init n (fun i -> entry_key t node i) in
      Array.iteri
        (fun i k ->
          if i > 0 && Key.compare keys.(i - 1) k >= 0 then
            fail "node %d entries out of order at %d" node i;
          (match lo with
          | Some b when Key.compare k b <= 0 -> fail "node %d entry %d violates lower bound" node i
          | _ -> ());
          (match hi with
          | Some b when Key.compare k b >= 0 -> fail "node %d entry %d violates upper bound" node i
          | _ -> ());
          (* Stored key in the record must match the entry key for
             direct schemes. *)
          (match t.cfg.scheme with
          | Layout.Direct _ ->
              let rk = Record_store.read_key t.records (rec_ptr t node i) in
              if not (Key.equal rk k) then fail "node %d entry %d: inline key != record key" node i
          | _ -> ());
          if is_partial t then
            Entries.check_pk t.ec node i ~key:k
              ~base:(if i = 0 then base else Some keys.(i - 1)))
        keys;
      if not (is_leaf t node) then
        for i = 0 to n do
          let lo' = if i = 0 then lo else Some keys.(i - 1) in
          let hi' = if i = n then hi else Some keys.(i) in
          let base' = if i = 0 then base else Some keys.(i - 1) in
          walk (child t node i) (depth + 1) ~lo:lo' ~hi:hi' ~base:base'
        done
    in
    walk t.root 0 ~lo:None ~hi:None ~base:None;
    if !total <> t.n_keys then fail "key count mismatch: walked %d, recorded %d" !total t.n_keys;
    if !nodes <> t.n_nodes then
      fail "node count mismatch: walked %d, recorded %d" !nodes t.n_nodes;
    if !leaf_depth + 1 <> t.tree_height then
      fail "height mismatch: leaves at depth %d, height %d" !leaf_depth t.tree_height
  end

(* Free every node and reset the header to the empty-tree state (the
   compaction teardown).  Arena frees go through the region's undo
   journal, so an enclosing engine guard rolls a partial clear back. *)
let clear t =
  let rec free_subtree node =
    if not (is_leaf t node) then
      for i = 0 to num_keys t node do
        free_subtree (child t node i)
      done;
    free_node t node
  in
  if t.root <> null then free_subtree t.root;
  t.root <- null;
  t.tree_height <- 0;
  t.n_keys <- 0

(* {2 Engine plug-in} — everything batched, bulk or cursor-shaped is
   derived from these primitives by {!module:Engine.Make}. *)

module Structure = struct
  type nonrec t = t
  type snap = int * int * int * int

  let name = "Btree"
  let region t = t.reg
  let counters = cnt
  let scratch t = t.sc
  let root t = t.root
  let save = save
  let restore = restore
  let insert = insert
  let delete = delete

  let prepare_batch t keys n =
    Scratch.grow_perm t.sc n;
    if is_partial t then Scratch.seed_findnode t.sc (Entries.granularity t.ec) keys n

  let descend t n = Group.drive (router t) t.root 0 n
  let descend_one t slot =
    if is_partial t then
      Scratch.seed_findnode t.sc (Entries.granularity t.ec) t.sc.Scratch.keys (slot + 1);
    Group.drive1 (router t) t.root slot

  let check_load_key t k =
    match t.cfg.scheme with
    | Layout.Direct { key_len } ->
        if Bytes.length k <> key_len then
          invalid_arg
            (Printf.sprintf "Btree.bulk_load: direct scheme expects %d-byte keys, got %d" key_len
               (Bytes.length k))
    | Layout.Indirect | Layout.Partial _ -> ()

  let layout_policy t = t.cfg.layout
  let load_shape = load_shape
  let load_sorted = load_sorted
  let clear = clear

  let cursor_start t = function
    | None -> push_spine t t.root []
    | Some from -> seek_from t from t.root []

  let frame_entries = num_keys
  let frame_entry t node i = (entry_key t node i, rec_ptr t node i)

  let advance t node i rest =
    if is_leaf t node then (node, i + 1) :: rest
    else push_spine t (child t node (i + 1)) ((node, i + 1) :: rest)

  let exhausted _ _ rest = rest
  let records t = t.records

  (* Header clone over the snapshot-view regions: pinned scalar state,
     fresh caches/scratch so nothing reaches back into the live tree. *)
  let snapshot_view t ~reg ~records =
    {
      t with
      reg;
      records;
      ec =
        Entries.make ~name:"Btree" ~reg ~records ~scheme:t.cfg.scheme ~entries_at
          (Counters.create ());
      sc = Scratch.create ();
      router = None;
    }

  let count = count
  let height = height
  let node_count = node_count
  let space_bytes = space_bytes
  let validate = validate
end

include Engine.Make (Structure)
