(** The qualifier recurrence over one node — the bottom-up half of
    ParBoX, of PaX3's Stage 1 (paper §3.1) and of PaX2's combined
    traversal.

    A node's qualifier vector holds the [A]/[B]/[D] entries of
    {!Pax_xpath.Compile}.  At a virtual node every entry is a fresh
    variable [Var.Qual (fid, e)]; those variables flow into the vectors
    of the node's ancestors, making them residual Boolean formulas that
    the coordinator later unifies.

    The recurrence needs no materialized tree — only a node's tag,
    text, numeric value and attributes, plus the child-disjunction of
    each entry.  {!Flat_pass} applies it to the [#document] wrapper of
    an absolute query (a node with no slot), and the streaming engine
    ({!Stream_eval}) to SAX frames. *)

module Formula = Pax_bool.Formula

type view = {
  vtag : string;
  vtext : string;
  vnum : float option;
  vattr : string -> string option;
}

(** [sat_view compiled vec view q] — satisfaction of a filter at a node
    given the node's qualifier vector.  Ground when the vector is
    ground. *)
val sat_view :
  Pax_xpath.Compile.t -> Formula.t array -> view -> Pax_xpath.Compile.qual ->
  Formula.t

(** [eval_entries compiled view ~exists_child] — one node's vector,
    where [exists_child e] is the OR of entry [e] over its children. *)
val eval_entries :
  Pax_xpath.Compile.t -> view -> exists_child:(int -> Formula.t) ->
  Formula.t array

(** The all-variables vector of a virtual node for fragment [fid]. *)
val virtual_vec : Pax_xpath.Compile.t -> int -> Formula.t array
