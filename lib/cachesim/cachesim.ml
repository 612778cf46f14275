type level_config = {
  level_name : string;
  size_bytes : int;
  block_bytes : int;
  associativity : int;
  latency_ns : float;
}

type tlb_config = { entries : int; page_bytes : int; miss_ns : float }

type config = {
  levels : level_config list;
  dram_ns : float;
  tlb : tlb_config option;
}

type level_counts = { name : string; accesses : int; hits : int; misses : int }

type snapshot = {
  per_level : level_counts array;
  tlb_accesses : int;
  tlb_misses : int;
  sim_ns : float;
  total_accesses : int;
}

type level = {
  cfg : level_config;
  n_sets : int;
  block_shift : int;
  (* tags.(set * assoc + way) holds a block number, or -1 when invalid. *)
  tags : int array;
  last_used : int array;
  mutable l_accesses : int;
  mutable l_hits : int;
  mutable l_misses : int;
}

type tlb = {
  tcfg : tlb_config;
  page_shift : int;
  pages : int array;
  page_last_used : int array;
  mutable t_accesses : int;
  mutable t_misses : int;
}

type t = {
  conf : config;
  levels_arr : level array;
  min_block : int;
  tlb_state : tlb option;
  mutable tick : int;
  mutable sim_ns : float;
  mutable total_accesses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let make_level cfg =
  if not (is_pow2 cfg.block_bytes) then
    invalid_arg (cfg.level_name ^ ": block size must be a power of two");
  if cfg.associativity <= 0 then invalid_arg (cfg.level_name ^ ": associativity <= 0");
  let way_bytes = cfg.block_bytes * cfg.associativity in
  if cfg.size_bytes <= 0 || cfg.size_bytes mod way_bytes <> 0 then
    invalid_arg (cfg.level_name ^ ": size not a multiple of block*assoc");
  let n_sets = cfg.size_bytes / way_bytes in
  {
    cfg;
    n_sets;
    block_shift = log2 cfg.block_bytes;
    tags = Array.make (n_sets * cfg.associativity) (-1);
    last_used = Array.make (n_sets * cfg.associativity) 0;
    l_accesses = 0;
    l_hits = 0;
    l_misses = 0;
  }

let make_tlb tcfg =
  if not (is_pow2 tcfg.page_bytes) then invalid_arg "tlb: page size must be a power of two";
  if tcfg.entries <= 0 then invalid_arg "tlb: entries <= 0";
  {
    tcfg;
    page_shift = log2 tcfg.page_bytes;
    pages = Array.make tcfg.entries (-1);
    page_last_used = Array.make tcfg.entries 0;
    t_accesses = 0;
    t_misses = 0;
  }

let create conf =
  (match conf.levels with [] -> invalid_arg "Cachesim.create: no levels" | _ :: _ -> ());
  let levels_arr = Array.of_list (List.map make_level conf.levels) in
  let min_block =
    Array.fold_left (fun acc l -> min acc l.cfg.block_bytes) max_int levels_arr
  in
  {
    conf;
    levels_arr;
    min_block;
    tlb_state = Option.map make_tlb conf.tlb;
    tick = 0;
    sim_ns = 0.0;
    total_accesses = 0;
  }

let config t = t.conf

(* Probe one level for [block]; install on miss, evicting LRU.  Returns
   true on hit. *)
let level_access lv block tick =
  lv.l_accesses <- lv.l_accesses + 1;
  let set = block mod lv.n_sets in
  let base = set * lv.cfg.associativity in
  let assoc = lv.cfg.associativity in
  let rec probe way =
    if way = assoc then None
    else if lv.tags.(base + way) = block then Some way
    else probe (way + 1)
  in
  match probe 0 with
  | Some way ->
      lv.l_hits <- lv.l_hits + 1;
      lv.last_used.(base + way) <- tick;
      true
  | None ->
      lv.l_misses <- lv.l_misses + 1;
      (* Choose the LRU way (empty ways have last_used 0 and tag -1;
         prefer an invalid way outright). *)
      let victim = ref 0 in
      let best = ref max_int in
      for way = 0 to assoc - 1 do
        if lv.tags.(base + way) = -1 && !best > -1 then begin
          victim := way;
          best := -1
        end
        else if !best > -1 && lv.last_used.(base + way) < !best then begin
          victim := way;
          best := lv.last_used.(base + way)
        end
      done;
      lv.tags.(base + !victim) <- block;
      lv.last_used.(base + !victim) <- tick;
      false

let tlb_access tl page tick =
  tl.t_accesses <- tl.t_accesses + 1;
  let n = Array.length tl.pages in
  let rec probe i = if i = n then None else if tl.pages.(i) = page then Some i else probe (i + 1) in
  match probe 0 with
  | Some i ->
      tl.page_last_used.(i) <- tick;
      true
  | None ->
      tl.t_misses <- tl.t_misses + 1;
      let victim = ref 0 in
      let best = ref max_int in
      for i = 0 to n - 1 do
        let lu = if tl.pages.(i) = -1 then -1 else tl.page_last_used.(i) in
        if lu < !best then begin
          victim := i;
          best := lu
        end
      done;
      tl.pages.(!victim) <- page;
      tl.page_last_used.(!victim) <- tick;
      false

(* One block-granular access at byte address [addr]. *)
let access_one t addr =
  t.tick <- t.tick + 1;
  t.total_accesses <- t.total_accesses + 1;
  (match t.tlb_state with
  | None -> ()
  | Some tl ->
      let page = addr lsr tl.page_shift in
      if not (tlb_access tl page t.tick) then t.sim_ns <- t.sim_ns +. tl.tcfg.miss_ns);
  let n = Array.length t.levels_arr in
  (* Walk the hierarchy near-to-far.  Every level missed so far gets the
     block installed (inclusive hierarchy). *)
  let rec walk i =
    if i = n then t.sim_ns <- t.sim_ns +. t.conf.dram_ns
    else
      let lv = t.levels_arr.(i) in
      let block = addr lsr lv.block_shift in
      if level_access lv block t.tick then t.sim_ns <- t.sim_ns +. lv.cfg.latency_ns
      else walk (i + 1)
  in
  walk 0

let touch t ~addr ~len =
  if len > 0 then begin
    if addr < 0 then invalid_arg "Cachesim.touch: negative address";
    (* Iterate the smallest block granularity present in the hierarchy;
       coarser levels dedupe naturally because consecutive touches to
       the same coarse block hit. *)
    let first = addr / t.min_block in
    let last = (addr + len - 1) / t.min_block in
    for b = first to last do
      access_one t (b * t.min_block)
    done
  end

let flush t =
  Array.iter
    (fun lv ->
      Array.fill lv.tags 0 (Array.length lv.tags) (-1);
      Array.fill lv.last_used 0 (Array.length lv.last_used) 0)
    t.levels_arr;
  Option.iter
    (fun tl ->
      Array.fill tl.pages 0 (Array.length tl.pages) (-1);
      Array.fill tl.page_last_used 0 (Array.length tl.page_last_used) 0)
    t.tlb_state

let reset_stats t =
  Array.iter
    (fun lv ->
      lv.l_accesses <- 0;
      lv.l_hits <- 0;
      lv.l_misses <- 0)
    t.levels_arr;
  Option.iter
    (fun tl ->
      tl.t_accesses <- 0;
      tl.t_misses <- 0)
    t.tlb_state;
  t.sim_ns <- 0.0;
  t.total_accesses <- 0

let snapshot t =
  {
    per_level =
      Array.map
        (fun lv ->
          { name = lv.cfg.level_name; accesses = lv.l_accesses; hits = lv.l_hits; misses = lv.l_misses })
        t.levels_arr;
    tlb_accesses = (match t.tlb_state with None -> 0 | Some tl -> tl.t_accesses);
    tlb_misses = (match t.tlb_state with None -> 0 | Some tl -> tl.t_misses);
    sim_ns = t.sim_ns;
    total_accesses = t.total_accesses;
  }

let diff ~before ~after =
  if Array.length before.per_level <> Array.length after.per_level then
    invalid_arg "Cachesim.diff: mismatched snapshots";
  {
    per_level =
      Array.mapi
        (fun i a ->
          let b = before.per_level.(i) in
          {
            name = a.name;
            accesses = a.accesses - b.accesses;
            hits = a.hits - b.hits;
            misses = a.misses - b.misses;
          })
        after.per_level;
    tlb_accesses = after.tlb_accesses - before.tlb_accesses;
    tlb_misses = after.tlb_misses - before.tlb_misses;
    sim_ns = after.sim_ns -. before.sim_ns;
    total_accesses = after.total_accesses - before.total_accesses;
  }

let misses snap ~level =
  let found = Array.to_list snap.per_level |> List.find_opt (fun c -> String.equal c.name level) in
  match found with Some c -> c.misses | None -> raise Not_found
