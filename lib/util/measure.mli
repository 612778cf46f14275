(** The one way this repository times something.

    Every wall-clock figure — experiment tables, pkbench/pkdump
    reports, examples — comes from this module's monotonic nanosecond
    clock (CLOCK_MONOTONIC through bechamel's allocation-free stub), so
    no timing can jump with a wall-clock adjustment and all of them
    share one method. *)

val now_ns : unit -> int
(** Monotonic clock reading in nanoseconds; only differences are
    meaningful. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] once and returns its result with the elapsed
    seconds.  No GC settling: for one-shot work (a build, a load, a
    recovery) that cannot be repeated. *)

val repeat : ?n:int -> (unit -> unit) -> float array
(** [repeat ~n f] returns the nanoseconds of each of [n] (default 5)
    timed runs of [f].  The GC-settle discipline: one [Gc.full_major]
    before an untimed warm run of [f], so garbage left by earlier work
    (another index's build, say) is collected outside the timed region
    and the real caches and allocator are warm; then one [Gc.major]
    before each timed run, so every run starts from the same settled
    major heap.  Callers report the minimum, the least disturbed run;
    a {!Stats_acc} over the samples gives the spread.  Raises
    [Invalid_argument] when [n < 1]. *)
