(** Deterministic fault injection for the storage and index layers.

    A {e fault point} is a named call site ({!val:point}) threaded
    through maintenance paths — arena allocation and growth, node
    reads/writes, tree splits/merges/rotations.  Tests {e arm} sites
    with a seeded schedule; an armed site raises {!exception:Injected}
    according to that schedule, exercising the unwind paths that a real
    allocation failure or storage fault would take.

    Everything is deterministic: probability schedules draw from a
    splitmix64 PRNG seeded by {!val:reset}, so any failure replays from
    its seed.  {!val:point} is inlined at its call site: with no site
    armed it costs one load and one branch, and the armed body runs out
    of line — the subsystem is free in production and benchmark runs. *)

exception Injected of string
(** Raised by {!val:point} at an armed site whose schedule fires.  The
    payload is the site name. *)

(** When an armed site injects. *)
type schedule =
  | Every_nth of int  (** Fire on every [n]-th hit of the site ([n >= 1]). *)
  | Probability of float  (** Fire on each hit with probability [p], from the seeded PRNG. *)
  | One_shot of int
      (** Fire exactly once, on the [k]-th hit ([k >= 1]); the site
          disarms itself after firing. *)

val point : string -> unit
(** [point site] — a fault point.  Raises {!exception:Injected} if
    [site] is armed and its schedule fires; otherwise counts the hit
    (when any site is armed) and returns. *)

val arm : string -> schedule -> unit
(** Arm [site] with [schedule], resetting its hit counter.  Raises
    [Invalid_argument] for a non-positive period/shot index or a
    probability outside [0, 1]. *)

val disarm : string -> unit
val disarm_all : unit -> unit

val reset : ?seed:int -> unit -> unit
(** Disarm every site, clear all counters, and reseed the PRNG
    (default seed 0). *)

val pause : (unit -> 'a) -> 'a
(** Run a thunk with injection suspended (hits are not counted
    either).  Used by validators and harness bookkeeping so that their
    own memory accesses cannot fault. *)

val armed : unit -> bool
(** Is any site currently armed (and not paused)? *)

(** {1 Accounting} *)

val hits : string -> int
(** Times [point site] was evaluated while any site was armed. *)

val injections : string -> int
(** Times [site] actually raised. *)

val total_injections : unit -> int

val sites : unit -> (string * int * int) list
(** Every site seen since the last {!val:reset}, as
    [(name, hits, injections)], sorted by name. *)

(** {1 Unwind protection switch} *)

val unwind_enabled : unit -> bool
(** Whether index update operations run under the arena undo journal
    (rollback to a structurally valid tree on any exception).  On by
    default; benchmarks may switch it off to take journaling out of
    the hot path. *)

val set_unwind : bool -> unit
