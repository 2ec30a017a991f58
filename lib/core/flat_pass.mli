(** The stage kernel: the qualifier and selection passes of PaX3 and
    ParBoX and PaX2's combined traversal, over flat fragment images
    ({!Pax_xml.Flat}, docs/FLATTREE.md).

    The paper's recurrences, evaluation order and operation counting,
    over preorder slots: tag tests compare interned int codes,
    text/attribute tests read the shared byte buffer in place,
    traversal follows int vectors.  The pointer-walking passes these
    were derived from are kept as a test-only reference
    (test/helpers/ref_kernel.ml), which the kernel seam compares with
    every pass, formula for formula.

    The [#document] wrapper of an absolute query has no slot; its
    vectors are computed from slot 0's through {!Qual_pass}'s view
    kernel. *)

module Formula = Pax_bool.Formula

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

(** {1 Qualifier pass} — PaX3 stage 1 and ParBoX. *)

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

(** [qual_vector q i] — slot [i]'s whole vector, resolved once
    {!qual_resolve} has run. *)
val qual_vector : qual -> int -> Formula.t array

(** [qual_run plan flat ~is_root] — bottom-up qualifier vectors for
    every slot; [is_root] marks fragment 0, whose root an absolute
    query wraps in a [#document] node. *)
val qual_run : plan -> Pax_xml.Flat.t -> is_root:bool -> qual

(** [qual_resolve q lookup] substitutes boundary variables in every
    stored vector in place (wrapper included), returning the operation
    count: every entry of every slot is counted, though only symbolic
    ones can change. *)
val qual_resolve : qual -> (Pax_bool.Var.t -> Formula.t option) -> int

(** {1 Selection pass} — PaX3 stage 2. *)

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

(** One fragment's stage-1 result: its root qualifier vector (the
    wrapper's, when wrapped), the certain answers, the candidates left
    for stage 2 and the context vectors of its virtual slots. *)
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
    returning, so candidates and contexts mention only boundary
    variables. *)
val combined_run :
  plan ->
  Pax_xml.Flat.t ->
  init:Formula.t array ->
  is_root:bool ->
  combined_outcome
