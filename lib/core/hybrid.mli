(** The hybrid scheme proposed in the paper's conclusions (§6):
    "direct storage ... for small, fixed-length keys and partial-key
    representations ... for larger and variable-length keys".

    The choice is made per index at creation time from the schema's key
    type — exactly the decision a database kernel would make when
    building an index over a typed column.  {!Index.make_hybrid} builds
    such an index. *)

val threshold_bytes : int
(** Keys at or below this length use direct storage (8 — the paper
    finds direct B-trees win below 12-20 bytes and partial-key trees
    above; 8 is safely inside the direct region for both entropies). *)

val scheme_for :
  key_len:int option ->
  ?granularity:Pk_partialkey.Partial_key.granularity ->
  ?l_bytes:int ->
  unit ->
  Layout.scheme
(** [scheme_for ~key_len ()] — [Direct] for fixed keys of length <=
    {!val:threshold_bytes}, [Partial] otherwise (including
    variable-length keys, [key_len = None]). *)
