module Mem = Engine.Mem
module Fault = Engine.Fault
module Key = Engine.Key
module Record_store = Engine.Record_store
module Counters = Engine.Counters
module Scratch = Engine.Scratch
module Group = Engine.Group
module Obs = Engine.Obs

type config = {
  node_bytes : int;
  layout : Layout.policy; (* where bulk loads place nodes; inserts always bump-alloc *)
}

let default_config : config = { node_bytes = 192; layout = Layout.Flat }

type t = {
  reg : Mem.region;
  records : Record_store.t;
  node_bytes : int;
  layout : Layout.policy;
  mutable root : int;
  mutable tree_height : int;
  mutable n_nodes : int;
  mutable n_keys : int;
  cnt : Counters.t;
  sc : Scratch.t;
  mutable router : Group.router option;  (* cached group-descent hooks *)
}

let null = Engine.null

(* Node layout (slotted page):
   [0: num u16][2: flags u8, bit0 = leaf][3: pad][4: prefix_len u16]
   [6: heap_start u16][8: link u64][16: dir u16 * num]
   Records live in a heap growing down from [node_bytes - prefix_len];
   the node's common prefix occupies the final [prefix_len] bytes.
   Leaf record:     [rec_ptr u64][suffix_len u16][suffix]
   Internal record: [child   u64][suffix_len u16][separator suffix]
   [link] is the next-leaf pointer in leaves, the leftmost child in
   internal nodes. *)
let dir_at = 16
let rec_overhead = 10

let create mem records (cfg : config) =
  if cfg.node_bytes < 64 || cfg.node_bytes > 0xffff then
    invalid_arg "Prefix_btree.create: node_bytes out of range";
  {
    reg = Mem.new_region mem ~initial_capacity:(1 lsl 20) ~name:"prefix-btree" ();
    records;
    node_bytes = cfg.node_bytes;
    layout = cfg.layout;
    root = null;
    tree_height = 0;
    n_nodes = 0;
    n_keys = 0;
    cnt = Counters.create ();
    sc = Scratch.create ();
    router = None;
  }

let count t = t.n_keys
let height t = t.tree_height
let node_count t = t.n_nodes
let space_bytes t = Mem.live_bytes t.reg
let deref_count t = t.cnt.Counters.derefs
let node_visits t = t.cnt.Counters.visits
let reset_counters t = Counters.reset t.cnt

(* {2 Raw node accessors} *)

let num_keys t node = Mem.read_u16 t.reg node
let is_leaf t node = Mem.read_u8 t.reg (node + 2) land 1 = 1
let prefix_len t node = Mem.read_u16 t.reg (node + 4)
let link t node = Mem.read_u64 t.reg (node + 8)
let set_link t node v = Mem.write_u64 t.reg (node + 8) v
let slot t node i = Mem.read_u16 t.reg (node + dir_at + (2 * i))
let rec_child t node i = Mem.read_u64 t.reg (node + slot t node i)
let rec_rid = rec_child
let suffix_len t node i = Mem.read_u16 t.reg (node + slot t node i + 8)

let read_suffix t node i =
  Mem.read_bytes t.reg ~off:(node + slot t node i + rec_overhead) ~len:(suffix_len t node i)

let read_prefix t node =
  let plen = prefix_len t node in
  Mem.read_bytes t.reg ~off:(node + t.node_bytes - plen) ~len:plen

(* Full key/separator of entry [i] (prefix ^ suffix). *)
let entry_key t node i =
  let p = read_prefix t node in
  let s = read_suffix t node i in
  Bytes.cat p s

let init_node t node ~leaf =
  Mem.write_u16 t.reg node 0;
  Mem.write_u8 t.reg (node + 2) (if leaf then 1 else 0);
  Mem.write_u16 t.reg (node + 4) 0;
  Mem.write_u16 t.reg (node + 6) t.node_bytes;
  set_link t node null;
  t.n_nodes <- t.n_nodes + 1;
  node

let alloc_node t ~leaf = init_node t (Mem.alloc t.reg ~align:64 t.node_bytes) ~leaf

(* Bulk-load allocation: at the plan's target offset when one exists
   (blocked layouts), plain bump allocation otherwise. *)
let alloc_node_at t plan ~level ~index ~leaf =
  match Layout.Placement.offset plan ~level ~index with
  | None -> alloc_node t ~leaf
  | Some off -> init_node t (Mem.alloc_at t.reg ~off t.node_bytes) ~leaf

let free_node t node =
  Mem.free t.reg node t.node_bytes;
  t.n_nodes <- t.n_nodes - 1

(* {2 Materialised node contents (update paths)} *)

let common_prefix_len keys =
  match keys with
  | [] -> 0
  | first :: rest ->
      List.fold_left
        (fun acc k ->
          let rec go i = if i < acc && i < Bytes.length k && Bytes.get k i = Bytes.get first i then go (i + 1) else i in
          go 0)
        (Bytes.length first) rest

(* Bytes needed to store [entries] (full keys + a u64 each). *)
let packed_size entries =
  let keys = List.map fst entries in
  let plen = common_prefix_len keys in
  let n = List.length entries in
  dir_at + (2 * n) + plen
  + List.fold_left (fun acc k -> acc + rec_overhead + (Bytes.length k - plen)) 0 keys

(* Rewrite a node's content from (full key, u64) pairs, sorted
   ascending.  The caller has checked [packed_size <= node_bytes]. *)
let write_node t node ~leaf ~link_v entries =
  let keys = List.map fst entries in
  let plen = common_prefix_len keys in
  let n = List.length entries in
  Mem.write_u16 t.reg node n;
  Mem.write_u8 t.reg (node + 2) (if leaf then 1 else 0);
  Mem.write_u16 t.reg (node + 4) plen;
  set_link t node link_v;
  (match keys with
  | [] -> ()
  | k :: _ ->
      Mem.write_bytes t.reg ~off:(node + t.node_bytes - plen) ~src:k ~src_off:0 ~len:plen);
  let heap = ref (t.node_bytes - plen) in
  List.iteri
    (fun i (k, v) ->
      let slen = Bytes.length k - plen in
      heap := !heap - rec_overhead - slen;
      Mem.write_u16 t.reg (node + dir_at + (2 * i)) !heap;
      Mem.write_u64 t.reg (node + !heap) v;
      Mem.write_u16 t.reg (node + !heap + 8) slen;
      Mem.write_bytes t.reg ~off:(node + !heap + rec_overhead) ~src:k ~src_off:plen ~len:slen)
    entries;
  Mem.write_u16 t.reg (node + 6) !heap

let read_entries t node =
  List.init (num_keys t node) (fun i -> (entry_key t node i, rec_child t node i))

(* {2 In-place search} *)

(* Compare the search key against the node prefix: [`Below] (search
   sorts before every key here), [`Above], or [`Within] (prefix
   matched; compare suffixes from [plen]). *)
let[@pklint.hot] compare_prefix t node search =
  let plen = prefix_len t node in
  if plen = 0 then `Within
  else
    (* Only the first [plen] bytes of the search key participate: a
       longer search key whose head matches the prefix is `Within`
       (its tail is compared against suffixes); a shorter matching
       search key sorts before every full key (`Below` — the stored
       prefix is then the longer operand, so c > 0). *)
    let c =
      Mem.compare_sign t.reg ~off:(node + t.node_bytes - plen) ~len:plen search ~key_off:0
        ~key_len:(if Bytes.length search < plen then Bytes.length search else plen)
    in
    if c > 0 then `Below else if c < 0 then `Above else `Within

(* Sign of c(search, entry [i]), comparing search (from [plen]) with
   the entry's suffix. *)
let[@pklint.hot] compare_suffix t node search ~plen i =
  let off = node + slot t node i + rec_overhead in
  let len = suffix_len t node i in
  -Mem.compare_sign t.reg ~off ~len search ~key_off:plen
     ~key_len:(if Bytes.length search > plen then Bytes.length search - plen else 0)

(* Binary search among entries [lo, hi) for [search]: the first index
   whose key is > search, or [lnot i] (negative) when entry [i] equals
   it. *)
let[@pklint.hot] rec locate_in_node t node search ~plen lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    let c = compare_suffix t node search ~plen mid in
    if c = 0 then lnot mid
    else if c < 0 then locate_in_node t node search ~plen lo mid
    else locate_in_node t node search ~plen (mid + 1) hi

let[@pklint.hot] locate t node search =
  let plen = prefix_len t node in
  let n = num_keys t node in
  locate_in_node t node search ~plen 0 n

(* Child index for a search key: 0 = leftmost ([link]), i > 0 =
   separator child [i - 1] — the rightmost separator <= search owns
   the subtree. *)
let[@pklint.hot] child_index t node search =
  match compare_prefix t node search with
  | `Below -> 0
  | `Above -> num_keys t node
  | `Within ->
      let r = locate t node search in
      if r < 0 then lnot r + 1 else r

let child_at t node ci = if ci = 0 then link t node else rec_child t node (ci - 1)

(* Resolve a search key inside a leaf: record address or -1. *)
let[@pklint.hot] leaf_find t node search =
  match compare_prefix t node search with
  | `Below | `Above -> -1
  | `Within ->
      let r = locate t node search in
      if r < 0 then rec_rid t node (lnot r) else -1

(* {2 Lookup hooks (group descent)}

   The child index for a probe is monotone non-decreasing in sorted
   key order, so probes reaching the same child form one contiguous
   run and every node is visited (and its prefix compared) once per
   batch — {!Engine.Group} drives the partitioned descent, and a single
   key descends as a one-probe batch through the same hooks. *)

let router t =
  match t.router with
  | Some r -> r
  | None ->
      let sc = t.sc in
      let r =
        {
          Group.sc;
          cnt = t.cnt;
          is_leaf = (fun node -> is_leaf t node);
          num_keys = (fun node -> num_keys t node);
          route =
            (fun node _n slot ->
              let ci = child_index t node sc.Scratch.keys.(slot) in
              Obs.Trace.emit t.cnt.Counters.trace Obs.Trace.k_route node ci;
              child_at t node ci);
          leaf_probe =
            (fun node _n slot ->
              sc.Scratch.out.(slot) <- leaf_find t node sc.Scratch.keys.(slot));
        }
      in
      t.router <- Some r;
      r

(* {2 Separator truncation} *)

(* Shortest byte string s with [a < s <= b] (requires a < b): b's
   prefix through its first byte of difference from a. *)
let truncated_separator a b =
  let c, d = Key.compare_detail a b in
  assert (match c with Key.Lt -> true | Key.Eq | Key.Gt -> false);
  Bytes.sub b 0 (min (Bytes.length b) (d + 1))

(* {2 Insert} *)

type split = No_split | Split of Key.t * int

exception Duplicate

let max_entry_bytes t = t.node_bytes - dir_at - 2 - rec_overhead

let rec insert_rec t node key rid =
  if is_leaf t node then begin
    let entries = read_entries t node in
    if List.exists (fun (k, _) -> Key.equal k key) entries then raise Duplicate;
    let entries = List.merge (fun (a, _) (b, _) -> Key.compare a b) [ (key, rid) ] entries in
    if packed_size entries <= t.node_bytes then begin
      write_node t node ~leaf:true ~link_v:(link t node) entries;
      No_split
    end
    else begin
      let n = List.length entries in
      let m = n / 2 in
      let left = List.filteri (fun i _ -> i < m) entries in
      let right = List.filteri (fun i _ -> i >= m) entries in
      let sep = truncated_separator (fst (List.nth left (m - 1))) (fst (List.hd right)) in
      Fault.point "prefix.split";
      let rnode = alloc_node t ~leaf:true in
      write_node t rnode ~leaf:true ~link_v:(link t node) right;
      (* Mid-split: the right node exists and is linked into the leaf
         chain target, but the left half still holds every entry. *)
      Fault.point "prefix.split.mid";
      write_node t node ~leaf:true ~link_v:rnode left;
      Split (sep, rnode)
    end
  end
  else begin
    match insert_rec t (child_at t node (child_index t node key)) key rid with
    | No_split -> No_split
    | Split (sep, rchild) ->
        let entries = read_entries t node in
        let entries =
          List.merge (fun (a, _) (b, _) -> Key.compare a b) [ (sep, rchild) ] entries
        in
        if packed_size entries <= t.node_bytes then begin
          write_node t node ~leaf:false ~link_v:(link t node) entries;
          No_split
        end
        else begin
          (* Promote the middle separator; its child becomes the right
             node's leftmost. *)
          let n = List.length entries in
          let j = n / 2 in
          let left = List.filteri (fun i _ -> i < j) entries in
          let mid_sep, mid_child = List.nth entries j in
          let right = List.filteri (fun i _ -> i > j) entries in
          Fault.point "prefix.split";
          let rnode = alloc_node t ~leaf:false in
          write_node t rnode ~leaf:false ~link_v:mid_child right;
          Fault.point "prefix.split.mid";
          write_node t node ~leaf:false ~link_v:(link t node) left;
          Split (mid_sep, rnode)
        end
  end

(* Exception safety: scalar snapshot + arena undo journal, as in
   {!module:Btree}. *)
let save t = (t.root, t.tree_height, t.n_nodes, t.n_keys)

let restore t (root, h, nn, nk) =
  t.root <- root;
  t.tree_height <- h;
  t.n_nodes <- nn;
  t.n_keys <- nk

let guarded t f =
  Engine.guarded ~reg:t.reg ~cnt:t.cnt ~save:(fun () -> save t) ~restore:(restore t) f

let insert t key ~rid =
  if rec_overhead + Bytes.length key > max_entry_bytes t then
    invalid_arg
      (Printf.sprintf "Prefix_btree.insert: %d-byte key cannot fit a %d-byte node"
         (Bytes.length key) t.node_bytes);
  guarded t (fun () ->
      if t.root = null then begin
        t.root <- alloc_node t ~leaf:true;
        t.tree_height <- 1
      end;
      match insert_rec t t.root key rid with
      | No_split ->
          t.n_keys <- t.n_keys + 1;
          true
      | Split (sep, rnode) ->
          let new_root = alloc_node t ~leaf:false in
          write_node t new_root ~leaf:false ~link_v:t.root [ (sep, rnode) ];
          t.root <- new_root;
          t.tree_height <- t.tree_height + 1;
          t.n_keys <- t.n_keys + 1;
          true
      | exception Duplicate -> false)

(* {2 Delete} *)

(* Byte-occupancy floor below which a node asks its parent for
   rebalancing. *)
let min_bytes t = t.node_bytes / 3

let used_bytes_of t node = packed_size (read_entries t node)

(* Children of an internal node as a list: leftmost + separator
   children. *)
let children t node =
  link t node :: List.init (num_keys t node) (fun i -> rec_child t node i)

exception Not_present

(* Split-point candidates in [lo, hi], most central first.  Re-splits
   prefer an even cut but may have to settle for a skewed one: the
   refreshed separator must also fit the parent. *)
let centre_out lo hi =
  if hi < lo then []
  else begin
    let m = (lo + hi) / 2 in
    let rec go d acc =
      if m + d > hi && m - d < lo then List.rev acc
      else
        let acc = if m + d <= hi then (m + d) :: acc else acc in
        let acc = if d > 0 && m - d >= lo then (m - d) :: acc else acc in
        go (d + 1) acc
    in
    go 0 []
  end

(* Rebalance child [ci] (0 = leftmost) of internal [node]: merge with a
   neighbour when the union fits, otherwise re-split the union and
   refresh the separator.  A refreshed separator can be longer than the
   one it replaces, so every re-split candidate is checked against the
   parent's capacity; when no cut fits, the rebalance is skipped — the
   minimum-occupancy target is a space heuristic, not an invariant, and
   overflowing the parent would corrupt its slot directory. *)
let rebalance_child t node ci =
  Fault.point "prefix.merge";
  let kids = Array.of_list (children t node) in
  let n_seps = num_keys t node in
  (* Pair (left_i) with (left_i + 1); separator index = left_i. *)
  let li = if ci = 0 then 0 else ci - 1 in
  if li + 1 > n_seps then ()
  else begin
    let lchild = kids.(li) and rchild = kids.(li + 1) in
    let seps = read_entries t node in
    let leaf = is_leaf t lchild in
    if leaf then begin
      let union = read_entries t lchild @ read_entries t rchild in
      if packed_size union <= t.node_bytes then begin
        (* Merge into the left leaf. *)
        write_node t lchild ~leaf:true ~link_v:(link t rchild) union;
        free_node t rchild;
        let seps' = List.filteri (fun i _ -> i <> li) seps in
        write_node t node ~leaf:false ~link_v:(link t node) seps'
      end
      else begin
        (* Re-split and refresh the separator. *)
        let u = Array.of_list union in
        let n = Array.length u in
        let try_cut m =
          let left = Array.to_list (Array.sub u 0 m) in
          let right = Array.to_list (Array.sub u m (n - m)) in
          let sep = truncated_separator (fst u.(m - 1)) (fst u.(m)) in
          let seps' = List.mapi (fun i (s, c) -> if i = li then (sep, c) else (s, c)) seps in
          if
            packed_size left <= t.node_bytes
            && packed_size right <= t.node_bytes
            && packed_size seps' <= t.node_bytes
          then Some (left, right, seps')
          else None
        in
        match List.find_map try_cut (centre_out 1 (n - 1)) with
        | Some (left, right, seps') ->
            write_node t rchild ~leaf:true ~link_v:(link t rchild) right;
            write_node t lchild ~leaf:true ~link_v:rchild left;
            write_node t node ~leaf:false ~link_v:(link t node) seps'
        | None -> ()
      end
    end
    else begin
      let sep_between = fst (List.nth seps li) in
      let lefts = read_entries t lchild in
      let rights = read_entries t rchild in
      let union = lefts @ ((sep_between, link t rchild) :: rights) in
      if packed_size union <= t.node_bytes then begin
        write_node t lchild ~leaf:false ~link_v:(link t lchild) union;
        free_node t rchild;
        let seps' = List.filteri (fun i _ -> i <> li) seps in
        write_node t node ~leaf:false ~link_v:(link t node) seps'
      end
      else begin
        let u = Array.of_list union in
        let n = Array.length u in
        let try_cut j =
          let left = Array.to_list (Array.sub u 0 j) in
          let mid_sep, mid_child = u.(j) in
          let right = Array.to_list (Array.sub u (j + 1) (n - j - 1)) in
          let seps' = List.mapi (fun i (s, c) -> if i = li then (mid_sep, c) else (s, c)) seps in
          if
            packed_size left <= t.node_bytes
            && packed_size right <= t.node_bytes
            && packed_size seps' <= t.node_bytes
          then Some (left, mid_child, right, seps')
          else None
        in
        (* Both halves must keep at least one separator. *)
        match List.find_map try_cut (centre_out 1 (n - 2)) with
        | Some (left, mid_child, right, seps') ->
            write_node t rchild ~leaf:false ~link_v:mid_child right;
            write_node t lchild ~leaf:false ~link_v:(link t lchild) left;
            write_node t node ~leaf:false ~link_v:(link t node) seps'
        | None -> ()
      end
    end
  end

let rec delete_rec t node key =
  if is_leaf t node then begin
    let entries = read_entries t node in
    if not (List.exists (fun (k, _) -> Key.equal k key) entries) then raise Not_present;
    let entries' = List.filter (fun (k, _) -> not (Key.equal k key)) entries in
    write_node t node ~leaf:true ~link_v:(link t node) entries'
  end
  else begin
    let ci = child_index t node key in
    let child = child_at t node ci in
    delete_rec t child key;
    if num_keys t child = 0 || used_bytes_of t child < min_bytes t then rebalance_child t node ci
  end

let delete t key =
  if t.root = null then false
  else
    guarded t (fun () ->
    match delete_rec t t.root key with
    | () ->
        t.n_keys <- t.n_keys - 1;
        (* Collapse the root. *)
        let rec shrink () =
          if t.root <> null then
            if is_leaf t t.root then begin
              if num_keys t t.root = 0 then begin
                free_node t t.root;
                t.root <- null;
                t.tree_height <- 0
              end
            end
            else if num_keys t t.root = 0 then begin
              let only = link t t.root in
              free_node t t.root;
              t.root <- only;
              t.tree_height <- t.tree_height - 1;
              shrink ()
            end
        in
        shrink ();
        true
    | exception Not_present -> false)

(* {2 Bulk load}

   Bottom-up construction from a sorted array: leaves are packed
   greedily to a byte budget of [fill * node_bytes], chained left to
   right, and each internal level groups the previous level's nodes
   with one truncated separator promoted between adjacent children.
   Every group keeps at least two children (one separator), so no
   internal node is left without separators. *)

let check_load_key t k =
  if rec_overhead + Bytes.length k > max_entry_bytes t then
    invalid_arg
      (Printf.sprintf "Prefix_btree.bulk_load: %d-byte key cannot fit a %d-byte node"
         (Bytes.length k) t.node_bytes)

(* Pure planning passes — group sizes derived from key bytes alone, so
   [load_shape] can predict exactly what [load_sorted] materialises
   (both call these; they cannot drift apart). *)

(* Leaf level: greedy byte packing.  [packed_size] is monotone in the
   entry list (adding an entry can only shrink the shared prefix), so
   the greedy cut is safe. *)
let plan_leaf_sizes ~budget entries =
  let n = Array.length entries in
  let sizes = ref [] in
  let group = ref [] in
  (* current group, reversed *)
  let count = ref 0 in
  for i = 0 to n - 1 do
    let e = entries.(i) in
    if !count > 0 && packed_size (List.rev (e :: !group)) > budget then begin
      sizes := !count :: !sizes;
      group := [];
      count := 0
    end;
    group := e :: !group;
    incr count
  done;
  if !count > 0 then sizes := !count :: !sizes;
  List.rev !sizes

(* Internal level over children summarised as (first, last) key pairs:
   each group takes >= 2 children (so every internal node carries at
   least one separator) and grows greedily to the budget; a trailing
   single child is never stranded — a large last group sheds one child
   to pair with it, otherwise the group absorbs it. *)
let plan_group_sizes ~budget fl =
  let len = Array.length fl in
  let sep i =
    (* Separates child [i] from child [i + 1]. *)
    truncated_separator (snd fl.(i)) (fst fl.(i + 1))
  in
  let sep_entries s c = List.init (c - 1) (fun j -> (sep (s + j), 0)) in
  let sizes = ref [] in
  let i = ref 0 in
  while !i < len do
    let s = !i in
    let c = ref 2 in
    let growing = ref true in
    while !growing do
      let rem = len - (s + !c) in
      if rem = 0 then growing := false
      else if rem = 1 then begin
        if !c >= 3 then decr c else incr c;
        growing := false
      end
      else if packed_size (sep_entries s (!c + 1)) > budget then growing := false
      else incr c
    done;
    sizes := !c :: !sizes;
    i := s + !c
  done;
  List.rev !sizes

(* Predict the level structure [load_sorted] will build: leaf cuts,
   then internal groupings over (first, last) summaries, root level
   first.  Group [i] of an internal level owns the contiguous child
   run its size dictates. *)
let load_shape t ~fill entries =
  let budget = int_of_float (fill *. float_of_int t.node_bytes) in
  let fl_leaves =
    let pos = ref 0 in
    Array.of_list
      (List.map
         (fun sz ->
           let first = fst entries.(!pos) and last = fst entries.(!pos + sz - 1) in
           pos := !pos + sz;
           (first, last))
         (plan_leaf_sizes ~budget entries))
  in
  let rec go fl acc =
    if Array.length fl = 1 then acc
    else begin
      let sizes = plan_group_sizes ~budget fl in
      let ranges =
        let s = ref 0 in
        Array.of_list
          (List.map
             (fun c ->
               let lo = !s in
               s := !s + c;
               (lo, !s))
             sizes)
      in
      let fl' =
        let s = ref 0 in
        Array.of_list
          (List.map
             (fun c ->
               let first = fst fl.(!s) and last = snd fl.(!s + c - 1) in
               s := !s + c;
               (first, last))
             sizes)
      in
      go fl' (ranges :: acc)
    end
  in
  {
    Layout.shape_node_bytes = t.node_bytes;
    shape_levels = Array.of_list (go fl_leaves [ Array.make (Array.length fl_leaves) (0, 0) ]);
  }

let load_sorted t ~fill ~plan entries =
  let n = Array.length entries in
  let budget = int_of_float (fill *. float_of_int t.node_bytes) in
  (* Root-first planner level of the nodes built at [height] above the
     leaves; meaningless under the flat plan, whose [offset] ignores
     it. *)
  let nlv = Layout.Placement.level_count plan in
  (* Leaf level: materialise the planned cuts. *)
  let level =
    let pos = ref 0 and li = ref 0 in
    Array.of_list
      (List.map
         (fun sz ->
           let es = Array.to_list (Array.sub entries !pos sz) in
           let node = alloc_node_at t plan ~level:(nlv - 1) ~index:!li ~leaf:true in
           write_node t node ~leaf:true ~link_v:null es;
           let first = fst entries.(!pos) and last = fst entries.(!pos + sz - 1) in
           pos := !pos + sz;
           incr li;
           (node, first, last))
         (plan_leaf_sizes ~budget entries))
  in
  (* Chain the leaves. *)
  Array.iteri
    (fun i (node, _, _) ->
      let next = if i + 1 < Array.length level then
          (let nd, _, _ = level.(i + 1) in nd)
        else null
      in
      set_link t node next)
    level;
  (* Internal levels: materialise the planned groupings. *)
  let rec build level height =
    if Array.length level = 1 then begin
      let root, _, _ = level.(0) in
      t.root <- root;
      t.tree_height <- height
    end
    else begin
      let sep i =
        (* Separates level.(i) from level.(i + 1). *)
        let _, _, last_l = level.(i) in
        let _, first_r, _ = level.(i + 1) in
        truncated_separator last_l first_r
      in
      (* Separator entries of the group [s .. s + c). *)
      let entries_of s c =
        List.init (c - 1) (fun j ->
            let nd, _, _ = level.(s + j + 1) in
            (sep (s + j), nd))
      in
      let sizes = plan_group_sizes ~budget (Array.map (fun (_, f, l) -> (f, l)) level) in
      let next_level = ref [] in
      let s = ref 0 and idx = ref 0 in
      List.iter
        (fun c ->
          let es = entries_of !s c in
          let node = alloc_node_at t plan ~level:(nlv - 1 - height) ~index:!idx ~leaf:false in
          let first_child, first_key, _ = level.(!s) in
          write_node t node ~leaf:false ~link_v:first_child es;
          let _, _, last_key = level.(!s + c - 1) in
          next_level := (node, first_key, last_key) :: !next_level;
          s := !s + c;
          incr idx)
        sizes;
      build (Array.of_list (List.rev !next_level)) (height + 1)
    end
  in
  build level 1;
  t.n_keys <- n

(* {2 Cursor primitives}

   The leaf chain makes the spine stack a single (leaf, next entry
   index) frame; an exhausted leaf is replaced by its link. *)

let rec leftmost_leaf t node = if is_leaf t node then node else leftmost_leaf t (link t node)

let rec seek_leaf t node from =
  if is_leaf t node then node
  else seek_leaf t (child_at t node (child_index t node from)) from

(* First entry index >= [from] in the landing leaf.  Later leaves hold
   only larger keys (routing stops below the next separator), so no
   per-key skipping is needed past this leaf. *)
let start_index t node from =
  match compare_prefix t node from with
  | `Below -> 0
  | `Above -> num_keys t node
  | `Within ->
      let r = locate t node from in
      if r < 0 then lnot r else r

let max_separator_len t =
  let best = ref 0 in
  let rec walk node =
    if node <> null && not (is_leaf t node) then begin
      for i = 0 to num_keys t node - 1 do
        best := max !best (prefix_len t node + suffix_len t node i)
      done;
      List.iter walk (children t node)
    end
  in
  if t.root <> null then walk t.root;
  !best

(* Print the tree structure (debugging aid). *)
let debug_dump t oc =
  let rec walk node depth =
    if node <> null then begin
      let pad = String.make (2 * depth) ' ' in
      let keys = List.map (fun (k, _) -> Key.to_hex k) (read_entries t node) in
      Printf.fprintf oc "%s%s %d plen=%d: %s\n" pad
        (if is_leaf t node then "leaf" else "int ") node (prefix_len t node)
        (String.concat " " keys);
      if not (is_leaf t node) then List.iter (fun c -> walk c (depth + 1)) (children t node)
    end
  in
  walk t.root 0

(* {2 Validation} *)

let validate t =
  let fail fmt = Printf.ksprintf failwith fmt in
  if t.root = null then begin
    if t.n_keys <> 0 then fail "empty tree with %d keys" t.n_keys;
    if t.n_nodes <> 0 then fail "empty tree with %d nodes" t.n_nodes
  end
  else begin
    let total = ref 0 in
    let nodes = ref 0 in
    let leaves_in_order = ref [] in
    let leaf_depth = ref (-1) in
    (* lo (inclusive) <= keys < hi (exclusive), as byte strings. *)
    let rec walk node depth ~lo ~hi =
      incr nodes;
      if packed_size (read_entries t node) > t.node_bytes then fail "node %d overfull" node;
      let keys = List.map fst (read_entries t node) in
      let plen = prefix_len t node in
      List.iter
        (fun k ->
          if Bytes.length k < plen then fail "node %d key shorter than prefix" node;
          (match lo with
          | Some b when Key.compare k b < 0 -> fail "node %d key below bound" node
          | _ -> ());
          match hi with
          | Some b when Key.compare k b >= 0 -> fail "node %d key above bound" node
          | _ -> ())
        keys;
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            if Key.compare a b >= 0 then fail "node %d unsorted" node else sorted rest
        | _ -> ()
      in
      sorted keys;
      (* stored prefix really is a shared prefix *)
      let p = read_prefix t node in
      List.iter
        (fun k ->
          if not (Bytes.equal (Bytes.sub k 0 plen) p) then fail "node %d prefix mismatch" node)
        keys;
      if is_leaf t node then begin
        total := !total + List.length keys;
        if !leaf_depth = -1 then leaf_depth := depth
        else if !leaf_depth <> depth then fail "uneven leaves";
        leaves_in_order := node :: !leaves_in_order
      end
      else begin
        if (match keys with [] -> true | _ :: _ -> false) && node <> t.root then
          fail "internal node %d with no separators" node;
        let seps = read_entries t node in
        let bounds =
          (lo :: List.map (fun (s, _) -> Some s) seps)
          @ [ hi ]
        in
        let kids = children t node in
        List.iteri
          (fun i child ->
            walk child (depth + 1) ~lo:(List.nth bounds i) ~hi:(List.nth bounds (i + 1)))
          kids
      end
    in
    walk t.root 0 ~lo:None ~hi:None;
    if !total <> t.n_keys then fail "count mismatch: %d vs %d" !total t.n_keys;
    if !nodes <> t.n_nodes then fail "node count mismatch: %d vs %d" !nodes t.n_nodes;
    if !leaf_depth + 1 <> t.tree_height then
      fail "height mismatch: %d vs %d" (!leaf_depth + 1) t.tree_height;
    (* Leaf chain covers exactly the leaves, in order. *)
    let chain = ref [] in
    let rec follow node =
      if node <> null then begin
        chain := node :: !chain;
        follow (link t node)
      end
    in
    follow (leftmost_leaf t t.root);
    if not (List.equal Int.equal (List.rev !chain) (List.rev !leaves_in_order)) then
      fail "leaf chain broken"
  end

(* Free every node and reset the header to the empty-tree state (the
   compaction teardown).  An internal node's children are its [link]
   (leftmost) plus one per directory entry; a leaf's [link] is the
   next-leaf pointer, freed by its own parent.  Arena frees go through
   the region's undo journal, so an enclosing engine guard rolls a
   partial clear back. *)
let clear t =
  let rec free_subtree node =
    if not (is_leaf t node) then begin
      free_subtree (link t node);
      for i = 0 to num_keys t node - 1 do
        free_subtree (rec_child t node i)
      done
    end;
    free_node t node
  in
  if t.root <> null then free_subtree t.root;
  t.root <- null;
  t.tree_height <- 0;
  t.n_keys <- 0

(* {2 Engine assembly} *)

module Structure = struct
  type nonrec t = t
  type snap = int * int * int * int

  let name = "Prefix_btree"
  let region t = t.reg
  let counters t = t.cnt
  let scratch t = t.sc
  let root t = t.root
  let save = save
  let restore = restore
  let insert = insert
  let delete = delete
  let prepare_batch t _keys n = Scratch.grow_perm t.sc n
  let descend t n = Group.drive (router t) t.root 0 n
  let descend_one t slot = Group.drive1 (router t) t.root slot
  let check_load_key = check_load_key
  let layout_policy t = t.layout
  let load_shape = load_shape
  let load_sorted = load_sorted
  let clear = clear

  let cursor_start t from =
    if t.root = null then []
    else
      match from with
      | None -> [ (leftmost_leaf t t.root, 0) ]
      | Some key ->
          let leaf = seek_leaf t t.root key in
          [ (leaf, start_index t leaf key) ]

  let frame_entries t node = num_keys t node
  let frame_entry t node i = (entry_key t node i, rec_rid t node i)
  let advance _t node i rest = (node, i + 1) :: rest

  let exhausted t node rest =
    let l = link t node in
    if l = null then rest else (l, 0) :: rest

  let records t = t.records

  (* Header clone over the snapshot-view regions: pinned scalar state,
     fresh caches/scratch so nothing reaches back into the live tree. *)
  let snapshot_view t ~reg ~records =
    { t with reg; records; cnt = Counters.create (); sc = Scratch.create (); router = None }

  let count = count
  let height = height
  let node_count = node_count
  let space_bytes = space_bytes
  let validate = validate
end

include Engine.Make (Structure)
