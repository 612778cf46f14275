(* Observability: named-metric registry + per-index trace rings.

   Handle discipline: registration resolves a series name to storage
   once (build time); the hot paths then update through the handle with
   plain array loads/stores.  Nothing here touches the OCaml heap on an
   update — the pklint zero-alloc rule checks the [@pklint.hot]
   functions statically and test_obs asserts it dynamically. *)

(* {2 Histogram internals} — shared with the registry below. *)

type hist_cell = {
  hg_name : string;
  hg_buckets : int array;  (* length n_buckets *)
  mutable hg_count : int;
  mutable hg_sum : int;
}

type slot = S_counter of int | S_hist of int

module Registry = struct
  type t = {
    mutable cells : int array;  (* counter values, flat *)
    mutable names : string array;  (* counter names, same indexing *)
    mutable n_counters : int;
    mutable hists : hist_cell array;
    mutable n_hists : int;
    index : (string, slot) Hashtbl.t;
    lock : Mutex.t;
        (* Serialises registration only (the name index and the
           grow-and-publish of the cell arrays); hot-path updates go
           through resolved handles and never take it.  Needed once
           shards register per-domain series concurrently. *)
  }

  let create () =
    {
      cells = Array.make 16 0;
      names = Array.make 16 "";
      n_counters = 0;
      hists = [||];
      n_hists = 0;
      index = Hashtbl.create 32;
      lock = Mutex.create ();
    }

  let default = create ()

  let reset_values r =
    Array.fill r.cells 0 r.n_counters 0;
    for i = 0 to r.n_hists - 1 do
      let h = r.hists.(i) in
      Array.fill h.hg_buckets 0 (Array.length h.hg_buckets) 0;
      h.hg_count <- 0;
      h.hg_sum <- 0
    done
end

(* Splice an extra label into a series name: a bare metric grows a
   label set, an existing set grows one more pair at the end.  Used for
   per-shard series ([?label:("shard", "3")]) so exporters see ordinary
   labelled names. *)
let with_label nm = function
  | None -> nm
  | Some (k, v) ->
      let pair = Printf.sprintf "%s=%S" k v in
      if String.length nm > 0 && nm.[String.length nm - 1] = '}' then
        Printf.sprintf "%s,%s}" (String.sub nm 0 (String.length nm - 1)) pair
      else Printf.sprintf "%s{%s}" nm pair

module Counter = struct
  type t = { creg : Registry.t; cidx : int }

  let register ?label (r : Registry.t) nm =
    let nm = with_label nm label in
    Mutex.protect r.Registry.lock @@ fun () ->
    match Hashtbl.find_opt r.Registry.index nm with
    | Some (S_counter i) -> { creg = r; cidx = i }
    | Some (S_hist _) -> invalid_arg ("Obs.Counter.register: " ^ nm ^ " is a histogram")
    | None ->
        let i = r.Registry.n_counters in
        if i >= Array.length r.Registry.cells then begin
          let cap = 2 * Array.length r.Registry.cells in
          let cells = Array.make cap 0 in
          Array.blit r.Registry.cells 0 cells 0 i;
          let names = Array.make cap "" in
          Array.blit r.Registry.names 0 names 0 i;
          r.Registry.cells <- cells;
          r.Registry.names <- names
        end;
        r.Registry.names.(i) <- nm;
        r.Registry.n_counters <- i + 1;
        Hashtbl.replace r.Registry.index nm (S_counter i);
        { creg = r; cidx = i }

  (* The scrap registry behind {!nop}: one shared cell that absorbs
     updates from handles never attached to a real registry. *)
  let scrap = register (Registry.create ()) "nop"
  let nop () = scrap

  (* Audited benign-racy: counter cells are plain ints bumped without
     synchronisation.  A lost increment under concurrent update skews a
     statistic, never corrupts index state — metrics are diagnostics,
     not control flow (DESIGN.md §12). *)
  let[@pklint.hot] [@pklint.guarded] incr c =
    let r = c.creg in
    r.Registry.cells.(c.cidx) <- r.Registry.cells.(c.cidx) + 1

  let[@pklint.hot] [@pklint.guarded] add c n =
    let r = c.creg in
    r.Registry.cells.(c.cidx) <- r.Registry.cells.(c.cidx) + n

  let value c = c.creg.Registry.cells.(c.cidx)
  let name c = c.creg.Registry.names.(c.cidx)
end

module Histogram = struct
  type t = hist_cell

  let n_buckets = 63

  (* Bit width of a positive value = its bucket (1..62); <= 0 is 0. *)
  let[@pklint.hot] rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1)
  let[@pklint.hot] bucket_of v = if v <= 0 then 0 else width v 0

  let bucket_lo k = if k <= 0 then min_int else 1 lsl (k - 1)
  let bucket_hi k = if k <= 0 then 0 else if k >= 62 then max_int else (1 lsl k) - 1

  let register ?label (r : Registry.t) nm =
    let nm = with_label nm label in
    Mutex.protect r.Registry.lock @@ fun () ->
    match Hashtbl.find_opt r.Registry.index nm with
    | Some (S_hist i) -> r.Registry.hists.(i)
    | Some (S_counter _) -> invalid_arg ("Obs.Histogram.register: " ^ nm ^ " is a counter")
    | None ->
        let h = { hg_name = nm; hg_buckets = Array.make n_buckets 0; hg_count = 0; hg_sum = 0 } in
        let i = r.Registry.n_hists in
        if i >= Array.length r.Registry.hists then begin
          let cap = max 8 (2 * Array.length r.Registry.hists) in
          let hists = Array.make cap h in
          Array.blit r.Registry.hists 0 hists 0 i;
          r.Registry.hists <- hists
        end;
        r.Registry.hists.(i) <- h;
        r.Registry.n_hists <- i + 1;
        Hashtbl.replace r.Registry.index nm (S_hist i);
        h

  let[@pklint.hot] observe h v =
    let b = bucket_of v in
    h.hg_buckets.(b) <- h.hg_buckets.(b) + 1;
    h.hg_count <- h.hg_count + 1;
    h.hg_sum <- h.hg_sum + v

  let count h = h.hg_count
  let sum h = h.hg_sum
  let bucket_count h k = h.hg_buckets.(k)
  let name h = h.hg_name
end

module Trace = struct
  type kind = Visit | Pk_eq | Pk_lt | Pk_gt | Deref | Route | Restart | Unwind

  type event = { seq : int; kind : kind; a : int; b : int }

  type t = {
    mutable enabled : bool;
    mutable mask : int;  (* capacity - 1; -1 while storage-free *)
    mutable kinds : int array;
    mutable ev_a : int array;
    mutable ev_b : int array;
    mutable next : int;  (* total events written *)
    mutable reader : int;  (* drain cursor *)
  }

  let create () =
    { enabled = false; mask = -1; kinds = [||]; ev_a = [||]; ev_b = [||]; next = 0; reader = 0 }

  let rec pow2 n acc = if acc >= n then acc else pow2 n (acc * 2)

  let enable ?(capacity = 1024) tr =
    if capacity < 1 then invalid_arg "Obs.Trace.enable: capacity must be >= 1";
    let cap = pow2 capacity 1 in
    if tr.mask < cap - 1 then begin
      tr.kinds <- Array.make cap 0;
      tr.ev_a <- Array.make cap 0;
      tr.ev_b <- Array.make cap 0;
      tr.mask <- cap - 1;
      tr.next <- 0;
      tr.reader <- 0
    end;
    tr.enabled <- true

  let disable tr = tr.enabled <- false
  let enabled tr = tr.enabled
  let capacity tr = tr.mask + 1
  let written tr = tr.next

  let k_visit = 0
  let k_pk_eq = 1
  let k_pk_lt = 2
  let k_pk_gt = 3
  let k_deref = 4
  let k_route = 5
  let k_restart = 6
  let k_unwind = 7

  let kind_of_code = function
    | 0 -> Visit
    | 1 -> Pk_eq
    | 2 -> Pk_lt
    | 3 -> Pk_gt
    | 4 -> Deref
    | 5 -> Route
    | 6 -> Restart
    | _ -> Unwind

  (* Audited benign-racy: the ring is a diagnostic tap.  Concurrent
     emitters may interleave slots or tear an event; consumers
     ([drain], the trace dumps) tolerate both, and tracing is disabled
     in any run whose output feeds an experiment. *)
  let[@pklint.hot] [@pklint.guarded] write tr k a b =
    let i = tr.next land tr.mask in
    tr.kinds.(i) <- k;
    tr.ev_a.(i) <- a;
    tr.ev_b.(i) <- b;
    tr.next <- tr.next + 1

  (* Inlined at every tap: a disabled ring costs one load and one
     branch; the ring write runs out of line. *)
  let[@inline] [@pklint.hot] emit tr k a b = if tr.enabled then write tr k a b

  let[@pklint.hot] emit_sign tr node sign =
    if tr.enabled then
      if sign < 0 then emit tr k_pk_lt node 0
      else if sign > 0 then emit tr k_pk_gt node 0
      else emit tr k_pk_eq node 0

  let drain tr =
    if tr.mask < 0 then ([], 0)
    else begin
      let lo = max tr.reader (tr.next - (tr.mask + 1)) in
      let dropped = lo - tr.reader in
      let events = ref [] in
      for s = tr.next - 1 downto lo do
        let i = s land tr.mask in
        events :=
          { seq = s; kind = kind_of_code tr.kinds.(i); a = tr.ev_a.(i); b = tr.ev_b.(i) }
          :: !events
      done;
      tr.reader <- tr.next;
      (!events, dropped)
    end

  let kind_name = function
    | Visit -> "visit"
    | Pk_eq -> "pk=eq"
    | Pk_lt -> "pk=lt"
    | Pk_gt -> "pk=gt"
    | Deref -> "deref"
    | Route -> "route"
    | Restart -> "restart"
    | Unwind -> "unwind"

  let event_to_string e =
    match e.kind with
    | Visit -> Printf.sprintf "#%-6d visit   node=%d" e.seq e.a
    | Pk_eq -> Printf.sprintf "#%-6d pk=eq   node=%d" e.seq e.a
    | Pk_lt -> Printf.sprintf "#%-6d pk=lt   node=%d off=%d" e.seq e.a e.b
    | Pk_gt -> Printf.sprintf "#%-6d pk=gt   node=%d off=%d" e.seq e.a e.b
    | Deref -> Printf.sprintf "#%-6d deref   node=%d entry=%d" e.seq e.a e.b
    | Route -> Printf.sprintf "#%-6d route   node=%d child=%d" e.seq e.a e.b
    | Restart -> Printf.sprintf "#%-6d restart attempt=%d" e.seq e.a
    | Unwind -> Printf.sprintf "#%-6d unwind" e.seq

  let pp_event ppf e = Format.pp_print_string ppf (event_to_string e)

  (* Referenced so the exhaustive name table stays live even if no
     driver links a pretty-printer. *)
  let _ = kind_name
end

module Snapshot = struct
  type hist = {
    hname : string;
    hcount : int;
    hsum : int;
    hbuckets : (int * int) list;
  }

  type t = { counters : (string * int) list; hists : hist list }

  let take (r : Registry.t) =
    let counters = ref [] in
    for i = r.Registry.n_counters - 1 downto 0 do
      counters := (r.Registry.names.(i), r.Registry.cells.(i)) :: !counters
    done;
    let hists = ref [] in
    for i = r.Registry.n_hists - 1 downto 0 do
      let h = r.Registry.hists.(i) in
      let buckets = ref [] in
      for k = Histogram.n_buckets - 1 downto 0 do
        if h.hg_buckets.(k) <> 0 then buckets := (k, h.hg_buckets.(k)) :: !buckets
      done;
      hists :=
        { hname = h.hg_name; hcount = h.hg_count; hsum = h.hg_sum; hbuckets = !buckets }
        :: !hists
    done;
    {
      counters = List.sort (fun (a, _) (b, _) -> String.compare a b) !counters;
      hists = List.sort (fun a b -> String.compare a.hname b.hname) !hists;
    }
end

(* {2 Prometheus text exposition} *)

(* A registered name may embed labels: "metric{k=\"v\"}".  Histogram
   series need a suffix on the metric part and an extra label merged
   into the label set. *)
let split_labels nm =
  match String.index_opt nm '{' with
  | None -> (nm, "")
  | Some i ->
      (* "...{a=\"b\"}" -> body without braces *)
      let body = String.sub nm (i + 1) (String.length nm - i - 2) in
      (String.sub nm 0 i, body)

let series nm ~suffix ~extra =
  let base, labels = split_labels nm in
  let all = match (labels, extra) with "", e -> e | l, "" -> l | l, e -> l ^ "," ^ e in
  if String.length all = 0 then base ^ suffix else Printf.sprintf "%s%s{%s}" base suffix all

let prometheus (r : Registry.t) =
  let snap = Snapshot.take r in
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line base kind =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.replace typed base ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun (nm, v) ->
      let base, _ = split_labels nm in
      type_line base "counter";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" nm v))
    snap.Snapshot.counters;
  List.iter
    (fun (h : Snapshot.hist) ->
      let base, _ = split_labels h.Snapshot.hname in
      type_line base "histogram";
      let cum = ref 0 in
      List.iter
        (fun (k, c) ->
          cum := !cum + c;
          let le = Printf.sprintf "le=\"%d\"" (Histogram.bucket_hi k) in
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" (series h.Snapshot.hname ~suffix:"_bucket" ~extra:le) !cum))
        h.Snapshot.hbuckets;
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n"
           (series h.Snapshot.hname ~suffix:"_bucket" ~extra:"le=\"+Inf\"")
           h.Snapshot.hcount);
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" (series h.Snapshot.hname ~suffix:"_sum" ~extra:"") h.Snapshot.hsum);
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n"
           (series h.Snapshot.hname ~suffix:"_count" ~extra:"")
           h.Snapshot.hcount))
    snap.Snapshot.hists;
  Buffer.contents buf
