(** Experiment registry for the benchmark harness.

    Each experiment reproduces one table or figure of the paper (or an
    ablation from DESIGN.md).  [pkbench] registers all of them and
    [pkbench run] runs a selection by id. *)

type t = {
  id : string;         (** e.g. ["f9a"]. *)
  title : string;
  paper_ref : string;  (** e.g. ["Figure 9(a)"]. *)
  run : unit -> unit;  (** Prints its tables to stdout. *)
}

val register : t -> unit
(** Raises [Invalid_argument] on duplicate ids. *)

val all : unit -> t list
(** In registration order. *)

val find : string -> t option
(** Case-insensitive id lookup. *)

val run_ids : string list -> unit
(** Run the given experiments (all when the list is empty), printing a
    banner per experiment.  Unknown ids abort with the list of valid
    ones. *)

(** {1 Scaling} — experiments read their sizes through these, so one
    environment variable scales the whole suite. *)

val scaled_keys : int -> int
(** [scaled_keys default] is [$PK_KEYS] when set, else
    [default * $PK_SCALE] (PK_SCALE defaults to 1.0).  Both variables
    are read with {!env_int}/{!env_float}, so a malformed or
    non-positive value raises instead of falling back to the default. *)

val scaled_lookups : int -> int
(** Same for the probe count via [$PK_LOOKUPS]. *)

val env_int : string -> int option
(** A positive integer from the environment — for experiment-specific
    knobs like [$PK_BATCH].  [None] when unset or empty; raises
    [Invalid_argument] naming the variable for any other value that is
    not a positive integer (["20k"], ["0"], ["-1"]). *)

val env_float : string -> float option
(** Same for positive finite floats, e.g. [$PK_FILL]. *)
