(* Timing and the span recorder of the traced run.

   Every timing in the benchmark comes from [now]: bechamel's monotonic
   nanosecond clock (CLOCK_MONOTONIC, unboxed and allocation-free). *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Cost of one [now ()] pair as placed around an operation: the median
   over 21 chunks of the mean pair duration. *)
let timer_pair_ns () =
  let chunk = 100_000 in
  let s = Pk_util.Stats_acc.create () in
  for _ = 1 to 21 do
    let acc = ref 0 in
    let t0 = now () in
    for _ = 1 to chunk do
      let a = now () in
      let b = now () in
      acc := !acc + (b - a)
    done;
    let t1 = now () in
    ignore (Sys.opaque_identity !acc);
    Pk_util.Stats_acc.add s (float_of_int (t1 - t0) /. float_of_int chunk)
  done;
  Pk_util.Stats_acc.percentile s 50.0

(* {1 Spans}

   The traced run records a span around each public call the benchmark
   makes: name, start, end, parent span and operation id.  Spans nest
   strictly (one domain), so a span's self time is its duration minus
   the summed durations of its direct children.  Every span feeds the
   per-name aggregates; the first [capacity] spans are also kept in
   memory and written out by [dump] when the run ends.

   [enter_ix]/[leave_ix] additionally record counter deltas at the same
   boundary: the index's dereference and node-visit counters and the
   minor words allocated. *)
module Spans = struct
  type t = {
    mutable names : string array;
    (* stored spans *)
    capacity : int;
    s_name : int array;
    s_start : int array;
    s_stop : int array;
    s_parent : int array;
    s_op : int array;
    mutable next_id : int;
    (* open-span stack *)
    st_id : int array;
    st_name : int array;
    st_start : int array;
    st_child : int array;
    st_derefs : int array;
    st_visits : int array;
    st_minor : float array;
    mutable depth : int;
    (* per-name aggregates *)
    mutable count : int array;
    mutable self : int array;
    mutable derefs : int array;
    mutable visits : int array;
    mutable minor : float array;
  }

  let max_depth = 8

  let create ?(capacity = 1 lsl 16) () =
    let z () = Array.make capacity 0 in
    let d () = Array.make max_depth 0 in
    {
      names = [||];
      capacity;
      s_name = z ();
      s_start = z ();
      s_stop = z ();
      s_parent = z ();
      s_op = z ();
      next_id = 0;
      st_id = d ();
      st_name = d ();
      st_start = d ();
      st_child = d ();
      st_derefs = d ();
      st_visits = d ();
      st_minor = Array.make max_depth 0.0;
      depth = 0;
      count = [||];
      self = [||];
      derefs = [||];
      visits = [||];
      minor = [||];
    }

  (* Intern a span name (done once per name, outside measured loops). *)
  let name t s =
    let rec find i =
      if i = Array.length t.names then begin
        t.names <- Array.append t.names [| s |];
        let grow a = Array.append a [| 0 |] in
        t.count <- grow t.count;
        t.self <- grow t.self;
        t.derefs <- grow t.derefs;
        t.visits <- grow t.visits;
        t.minor <- Array.append t.minor [| 0.0 |];
        i
      end
      else if String.equal t.names.(i) s then i
      else find (i + 1)
    in
    find 0

  let push t nm ~derefs ~visits =
    let d = t.depth in
    t.st_id.(d) <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.st_name.(d) <- nm;
    t.st_child.(d) <- 0;
    t.st_derefs.(d) <- derefs;
    t.st_visits.(d) <- visits;
    t.st_minor.(d) <- Gc.minor_words ();
    t.depth <- d + 1;
    t.st_start.(d) <- now ()

  let pop t op ~derefs ~visits =
    let stop = now () in
    let minor = Gc.minor_words () in
    let d = t.depth - 1 in
    t.depth <- d;
    let nm = t.st_name.(d) and start = t.st_start.(d) in
    let dur = stop - start in
    t.count.(nm) <- t.count.(nm) + 1;
    t.self.(nm) <- t.self.(nm) + dur - t.st_child.(d);
    t.derefs.(nm) <- t.derefs.(nm) + derefs - t.st_derefs.(d);
    t.visits.(nm) <- t.visits.(nm) + visits - t.st_visits.(d);
    t.minor.(nm) <- t.minor.(nm) +. (minor -. t.st_minor.(d));
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let id = t.st_id.(d) in
    if id < t.capacity then begin
      t.s_name.(id) <- nm;
      t.s_start.(id) <- start;
      t.s_stop.(id) <- stop;
      t.s_parent.(id) <- (if d > 0 then t.st_id.(d - 1) else -1);
      t.s_op.(id) <- op
    end

  let enter t nm = push t nm ~derefs:0 ~visits:0
  let leave t op = pop t op ~derefs:0 ~visits:0

  let enter_ix t nm (ix : Pk_core.Index.t) =
    push t nm ~derefs:(ix.deref_count ()) ~visits:(ix.node_visits ())

  let leave_ix t op (ix : Pk_core.Index.t) =
    pop t op ~derefs:(ix.deref_count ()) ~visits:(ix.node_visits ())

  let find t s =
    let rec go i =
      if i = Array.length t.names then None
      else if String.equal t.names.(i) s then Some i
      else go (i + 1)
    in
    go 0

  let get f t s = match find t s with Some i -> f i | None -> 0

  let count t s = get (fun i -> t.count.(i)) t s
  let self_ns t s = get (fun i -> t.self.(i)) t s
  let derefs t s = get (fun i -> t.derefs.(i)) t s
  let visits t s = get (fun i -> t.visits.(i)) t s
  let minor_words t s = match find t s with Some i -> t.minor.(i) | None -> 0.0

  (* Mean self time per span of the given name (0 when none ran). *)
  let mean_self_ns t s =
    let c = count t s in
    if c = 0 then 0.0 else float_of_int (self_ns t s) /. float_of_int c

  (* Append the stored spans as tab-separated lines to [oc]. *)
  let dump t ~phase oc =
    let n = min t.next_id t.capacity in
    for id = 0 to n - 1 do
      Printf.fprintf oc "%s\t%d\t%s\t%d\t%d\t%d\t%d\n" phase id t.names.(t.s_name.(id))
        t.s_start.(id) t.s_stop.(id) t.s_parent.(id) t.s_op.(id)
    done;
    if t.next_id > t.capacity then
      Printf.fprintf oc "# %s: %d spans beyond the in-memory capacity were aggregated only\n"
        phase (t.next_id - t.capacity)
end
