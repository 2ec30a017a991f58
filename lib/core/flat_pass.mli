(** The stage passes of {!Sel_pass}, {!Qual_pass} and PaX2's combined
    traversal over flat fragment images ({!Pax_xml.Flat},
    docs/FLATTREE.md).

    Same recurrences, same formula-construction order, same operation
    counting as the pointer passes — only the node representation
    changes: tag tests compare interned int codes, text/attribute tests
    read the shared byte buffer in place, traversal follows int vectors.
    A flat run is bit-identical to a pointer run through every oracle
    (answers, visit vectors, ops, trace events, audits); the engine seam
    tests assert this clean and under faults.

    The [#document] wrapper of an absolute query has no slot; it is
    evaluated through the pointer kernel on a materialized node. *)

module Formula = Pax_bool.Formula

(** Whether the flat hot path is on ([PAX_FLAT] unset or not ["0"]).
    Engines take [?flat] defaulting to this. *)
val enabled : unit -> bool

(** {1 Plans} *)

(** A compiled query lowered against one store's intern table: tag
    tests and attribute-key names as int codes.  Build once per run
    (the table is store-wide, so one plan serves every fragment),
    before the round whose visits use it: it is immutable, so visits
    on any domain may share it. *)
type plan

(** [make_plan compiled intern] looks codes up without inserting; a
    label the store never interned matches no node. *)
val make_plan : Pax_xpath.Compile.t -> Pax_xml.Intern.t -> plan

(** {1 Qualifier pass} — {!Qual_pass.run} over a flat image. *)

(** One fragment's qualifier vectors.  Entries with no residual
    variable are held as bits; only the symbolic spine above the
    fragment's virtual slots holds formulas (docs/FLATTREE.md). *)
type qual

(** The eval root's vector (the [#document] wrapper's, when the root
    fragment of an absolute query was wrapped). *)
val qual_root_vec : qual -> Formula.t array

(** Operations the pass performed. *)
val qual_ops : qual -> int

(** The image the pass ran on: its slots index the vectors. *)
val qual_flat : qual -> Pax_xml.Flat.t

(** [qual_run plan flat ~is_root] — bottom-up qualifier vectors for
    every slot; [is_root] marks fragment 0, whose root an absolute
    query wraps in a [#document] node. *)
val qual_run : plan -> Pax_xml.Flat.t -> is_root:bool -> qual

(** [qual_resolve q lookup] substitutes boundary variables in every
    stored vector in place (wrapper included), returning the operation
    count — same as {!Qual_pass.resolve}: every entry of every slot is
    counted, though only symbolic ones can change. *)
val qual_resolve : qual -> (Pax_bool.Var.t -> Formula.t option) -> int

(** {1 Selection pass} — {!Sel_pass.run} over a flat image. *)

(** [sel_run plan flat ~init ~is_root ~qual] — the top-down pass, with
    qualifier satisfaction read from a resolved [qual] (or trivially
    when [None]: no qualifier entries).  [is_root] plays the role of
    [root_is_context] and selects [#document] wrapping for absolute
    queries.  Answer and candidate nodes are the live pointer nodes
    ([Flat.orig]), so downstream resolution is unchanged.  Subtrees
    whose selection vectors are all [False] are skipped, their ops and
    contexts accounted as if walked. *)
val sel_run :
  plan ->
  Pax_xml.Flat.t ->
  init:Formula.t array ->
  is_root:bool ->
  qual:qual option ->
  Sel_pass.outcome

(** {1 Combined pass} — PaX2's single interleaved traversal. *)

(** Same shape as [Pax2.Combined.outcome] (re-exported there as an
    equation). *)
type combined_outcome = {
  root_qvec : Formula.t array;
  answers : Pax_xml.Tree.node list;
  candidates : (Pax_xml.Tree.node * Formula.t) list;
  contexts : (int * Formula.t array) list;
  ops : int;
}

(** [combined_run plan flat ~init ~is_root] — PaX2's one traversal:
    every slot's qualifier vector, then pre-order selection with
    placeholder qualifiers, local placeholders resolved before
    returning; same outcome, formula for formula, as
    [Pax2.Combined.run]. *)
val combined_run :
  plan ->
  Pax_xml.Flat.t ->
  init:Formula.t array ->
  is_root:bool ->
  combined_outcome
