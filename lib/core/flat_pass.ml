(* The stage kernel: the qualifier, selection and combined passes of
   PaX3, PaX2 and ParBoX over flat fragment images (docs/FLATTREE.md).

   Each pass keeps the paper's recurrences, evaluation order and
   operation counting over {!Pax_xml.Flat} slots: tag tests compare
   interned int codes, text and attribute tests compare against the
   shared byte buffer in place, and traversal follows the
   [first_child]/[next_sibling] int vectors.  The pointer-walking
   passes these were derived from live on as a test-only reference
   (test/helpers/ref_kernel.ml); test/test_engine_seam.ml compares
   every pass with it, formula for formula, on every fragment.

   Two representation choices make the loops cheap without changing a
   single formula or op count:

   - Ground masks.  Residual variables enter a qualifier vector only
     at virtual slots, so every slot whose subtree holds no virtual
     node has a vector of plain [True]/[False].  Such a slot keeps its
     vector as bits in a per-run [int array] (32 entries per word), and
     "some child has entry e" is one OR of the child masks.  Formula
     vectors exist only on the symbolic spine above the virtual slots,
     built in the reference pass's construction order.
   - Dead subtrees.  Once a non-context slot's selection vector is all
     [False], so is every selection vector below it: the selection
     half skips the subtree, charging its [n_sel] ops per element slot
     and emitting an all-[False] context per virtual slot, in preorder.

   The one node that has no slot is the [#document] context wrapper an
   absolute query puts above the root fragment: [wrapper_qvec] and
   [wrapper_step] evaluate it from slot 0's vectors through the view
   kernel {!Qual_pass} shares with the streaming engine. *)

module Tree = Pax_xml.Tree
module Flat = Pax_xml.Flat
module Intern = Pax_xml.Intern
module Compile = Pax_xpath.Compile
module Ast = Pax_xpath.Ast
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

(* ------------------------------------------------------------------ *)
(* plans: the compiled query lowered against a store's intern table   *)
(* ------------------------------------------------------------------ *)

(* A tag test as an int: [-2] matches any tag, [-1] (a label the store
   never interned) matches none, a code matches exactly that tag. *)

type fqual =
  | FSat_empty  (* Sat of an empty path: trivially true *)
  | FSat of int  (* Sat of path [p]: entry [p.sat.(0)] *)
  | FText_eq of string
  | FVal_cmp of Ast.cmp * float
  | FAttr_test of int * string option
  | FNot of fqual
  | FAnd of fqual * fqual
  | FOr of fqual * fqual

type fitem = FMove of int | FDos | FFilter of fqual

type fpath = {
  fitems : fitem array;
  fsat : int array;
  fstep : int array;
  fdesc : int array;
}

(* Immutable once built, so one plan serves every visit of a run, on
   any domain. *)
type plan = { compiled : Compile.t; fsel : fitem array; fpaths : fpath array }

let lower_test intern = function
  | Compile.TAny -> -2
  | Compile.TLabel s -> Intern.find intern s

let make_plan (compiled : Compile.t) intern : plan =
  let rec lower_qual = function
    | Compile.Sat pi ->
        let p = compiled.Compile.paths.(pi) in
        if Array.length p.Compile.items = 0 then FSat_empty
        else FSat p.Compile.sat.(0)
    | Compile.Text_eq s -> FText_eq s
    | Compile.Val_cmp (op, num) -> FVal_cmp (op, num)
    | Compile.Attr_test (name, value) ->
        FAttr_test (Intern.find intern name, value)
    | Compile.Qnot q -> FNot (lower_qual q)
    | Compile.Qand (a, b) -> FAnd (lower_qual a, lower_qual b)
    | Compile.Qor (a, b) -> FOr (lower_qual a, lower_qual b)
  in
  let lower_item = function
    | Compile.Move test -> FMove (lower_test intern test)
    | Compile.Dos_item -> FDos
    | Compile.Filter q -> FFilter (lower_qual q)
  in
  {
    compiled;
    fsel = Array.map lower_item compiled.Compile.sel;
    fpaths =
      Array.map
        (fun (p : Compile.cpath) ->
          {
            fitems = Array.map lower_item p.Compile.items;
            fsat = p.Compile.sat;
            fstep = p.Compile.step;
            fdesc = p.Compile.desc;
          })
        compiled.Compile.paths;
  }

(* ------------------------------------------------------------------ *)
(* qualifier satisfaction over a slot                                 *)
(* ------------------------------------------------------------------ *)

(* Mirror of {!Qual_pass.sat_view} with the lowered tests. *)
let rec fsat_view flat vec i = function
  | FSat_empty -> Formula.true_
  | FSat e -> vec.(e)
  | FText_eq s -> Formula.bool (Flat.text_equals flat i s)
  | FVal_cmp (op, num) ->
      Formula.bool
        (match Flat.num flat i with
        | Some f -> Ast.compare_num op f num
        | None -> false)
  | FAttr_test (key, expected) ->
      Formula.bool (Flat.attr_test flat i ~key ~expected)
  | FNot q -> Formula.not_ (fsat_view flat vec i q)
  | FAnd (a, b) ->
      Formula.conj (fsat_view flat vec i a) (fsat_view flat vec i b)
  | FOr (a, b) -> Formula.disj (fsat_view flat vec i a) (fsat_view flat vec i b)

(* Mirror of {!Qual_pass.eval_entries}: one element slot's qualifier
   vector, path by path, suffix-position descending. *)
let feval_entries plan flat i ~exists_child : Formula.t array =
  let vec = Array.make plan.compiled.Compile.n_qual Formula.false_ in
  let tagc = Flat.tag_code flat i in
  Array.iter
    (fun (p : fpath) ->
      let k = Array.length p.fitems in
      for j = k - 1 downto 0 do
        let a_next =
          if j + 1 = k then Formula.true_ else vec.(p.fsat.(j + 1))
        in
        match p.fitems.(j) with
        | FMove code ->
            vec.(p.fstep.(j)) <-
              (if code = -2 || code = tagc then a_next else Formula.false_);
            vec.(p.fsat.(j)) <- exists_child p.fstep.(j)
        | FDos ->
            let d =
              if j + 1 = k then Formula.true_
              else begin
                let e = p.fdesc.(j + 1) in
                vec.(e) <- Formula.disj a_next (exists_child e);
                vec.(e)
              end
            in
            vec.(p.fsat.(j)) <- d
        | FFilter q ->
            vec.(p.fsat.(j)) <-
              (match a_next with
              | Formula.False -> Formula.false_
              | _ -> Formula.conj (fsat_view flat vec i q) a_next)
      done)
    plan.fpaths;
  vec

(* ------------------------------------------------------------------ *)
(* ground masks                                                       *)
(* ------------------------------------------------------------------ *)

(* Entry [e] of the mask at [m.(o ..)] is bit [e land 31] of word
   [o + e lsr 5]: 32 entries a word, so addressing is two shifts
   rather than a division (an OCaml int would hold 62 or 63). *)
let words n_qual = (n_qual + 31) / 32

let[@inline] get m o e = (m.(o + (e lsr 5)) lsr (e land 31)) land 1 = 1

let[@inline] put m o e b =
  let k = o + (e lsr 5) and s = e land 31 in
  m.(k) <- (m.(k) land lnot (1 lsl s)) lor (Bool.to_int b lsl s)

(* [fsat_view] on a ground slot, whose vector is the mask at
   [m.(o ..)]: every formula it would build is a constant. *)
let rec fsat_bits flat m o i = function
  | FSat_empty -> true
  | FSat e -> get m o e
  | FText_eq s -> Flat.text_equals flat i s
  | FVal_cmp (op, num) -> (
      match Flat.num flat i with
      | Some f -> Ast.compare_num op f num
      | None -> false)
  | FAttr_test (key, expected) -> Flat.attr_test flat i ~key ~expected
  | FNot q -> not (fsat_bits flat m o i q)
  | FAnd (a, b) -> fsat_bits flat m o i a && fsat_bits flat m o i b
  | FOr (a, b) -> fsat_bits flat m o i a || fsat_bits flat m o i b

(* [feval_entries] on a slot whose children are all ground: the same
   writes in the same order, into the (zeroed) mask at [m.(o ..)];
   [kor] is the OR of the children's masks, so "some child has entry
   e" is bit [e] of [kor]. *)
let feval_bits plan flat i m o kor =
  let tagc = Flat.tag_code flat i in
  for pi = 0 to Array.length plan.fpaths - 1 do
    let p = plan.fpaths.(pi) in
    let k = Array.length p.fitems in
    for j = k - 1 downto 0 do
      let a_next = j + 1 = k || get m o p.fsat.(j + 1) in
      match p.fitems.(j) with
      | FMove code ->
          put m o p.fstep.(j) (a_next && (code = -2 || code = tagc));
          put m o p.fsat.(j) (get kor 0 p.fstep.(j))
      | FDos ->
          if j + 1 = k then put m o p.fsat.(j) true
          else begin
            let e = p.fdesc.(j + 1) in
            let d = a_next || get kor 0 e in
            put m o e d;
            put m o p.fsat.(j) d
          end
      | FFilter q -> put m o p.fsat.(j) (a_next && fsat_bits flat m o i q)
    done
  done

(* Every slot's qualifier vector: a ground slot's as [words] bits at
   [masks.(slot * words ..)], a spine slot's (virtual, or above a
   virtual slot) as the formula vector [spine.(slot)], which is [||]
   for ground slots.  [spine] itself is [||] when no slot needs it (no
   virtual slot, or no qualifier entry). *)
type qvecs = {
  words : int;
  masks : int array;
  spine : Formula.t array array;
}

let spine_vec qv i = if Array.length qv.spine = 0 then [||] else qv.spine.(i)

(* Slot [i]'s entry [e], as a formula. *)
let entry qv i e =
  let v = spine_vec qv i in
  if Array.length v > 0 then v.(e)
  else Formula.bool (get qv.masks (i * qv.words) e)

(* The qualifier half shared by [qual_run] and [combined_run]:
   reverse preorder, so children are done before their parent.  Adds
   each element slot's [n_qual * (1 + children)] to [ops]; what a
   virtual slot costs differs between the two passes. *)
let qual_fill plan flat ~ops : qvecs =
  let compiled = plan.compiled in
  let n_qual = compiled.Compile.n_qual in
  let n = Flat.length flat in
  let w = words n_qual in
  let masks = Array.make (n * w) 0 in
  let spine =
    if n_qual > 0 && Flat.n_virtual flat > 0 then Array.make n [||] else [||]
  in
  let qv = { words = w; masks; spine } in
  let kor = Array.make w 0 in
  (* A left fold over the children, ground entries read as
     constants. *)
  let exists_child i e =
    let rec go c acc =
      if c < 0 then acc
      else go (Flat.next_sibling flat c) (Formula.disj acc (entry qv c e))
    in
    go (Flat.first_child flat i) Formula.false_
  in
  if n_qual > 0 then
    for i = n - 1 downto 0 do
      let vfid = Flat.virtual_fid flat i in
      if vfid >= 0 then spine.(i) <- Qual_pass.virtual_vec compiled vfid
      else begin
        for k = 0 to w - 1 do
          kor.(k) <- 0
        done;
        let kids = ref 0 and symbolic = ref false in
        let c = ref (Flat.first_child flat i) in
        while !c >= 0 do
          incr kids;
          if Array.length (spine_vec qv !c) > 0 then symbolic := true
          else
            for k = 0 to w - 1 do
              kor.(k) <- kor.(k) lor masks.((!c * w) + k)
            done;
          c := Flat.next_sibling flat !c
        done;
        ops := !ops + (n_qual * (1 + !kids));
        if !symbolic then
          spine.(i) <- feval_entries plan flat i ~exists_child:(exists_child i)
        else feval_bits plan flat i masks (i * w) kor
      end
    done;
  qv

(* Slot [i]'s whole vector (physically the stored one on the spine). *)
let vector qv ~n_qual i =
  let v = spine_vec qv i in
  if Array.length v > 0 then v else Array.init n_qual (entry qv i)

(* Filter satisfaction at slot [i] against its (resolved) vector. *)
let sat_at flat qv i q =
  let v = spine_vec qv i in
  if Array.length v > 0 then fsat_view flat v i q
  else Formula.bool (fsat_bits flat qv.masks (i * qv.words) i q)

(* ------------------------------------------------------------------ *)
(* dead subtrees                                                      *)
(* ------------------------------------------------------------------ *)

(* The selection half shared by [sel_run] and [combined_run]: a
   preorder walk from slot 0 whose parent vector is [init].  Each
   element slot's vector is filled from its parent's ([sat i q]
   evaluates filter [q] at slot [i]), noting whether any entry is not
   [False], and a last entry other than [False] goes to [emit] with
   the slot's node.  Below a dead slot the walk charges what a full
   walk would — [n_sel] ops per element slot, an all-[False] context
   per virtual slot, in preorder — from the slot's [subtree_size] and
   a cursor over the image's virtual slots.  Returns the ops and the
   contexts, in preorder. *)
let sel_walk plan flat ~init ~is_context ~sat ~emit =
  let n = plan.compiled.Compile.n_sel in
  let ops = ref 0 in
  let contexts = ref [] in
  let next_virtual = ref 0 in
  let skip_below i =
    let stop = i + Flat.subtree_size flat i in
    let first = !next_virtual in
    while
      !next_virtual < Flat.n_virtual flat
      && Flat.virtual_slot flat !next_virtual < stop
    do
      let fid = Flat.virtual_fid flat (Flat.virtual_slot flat !next_virtual) in
      contexts := (fid, Array.make n Formula.false_) :: !contexts;
      incr next_virtual
    done;
    ops := !ops + (n * (stop - i - 1 - (!next_virtual - first)))
  in
  let rec go i ~is_context (sv_p : Formula.t array) =
    let vfid = Flat.virtual_fid flat i in
    if vfid >= 0 then begin
      contexts := (vfid, Array.copy sv_p) :: !contexts;
      incr next_virtual
    end
    else begin
      ops := !ops + n;
      let sv = Array.make n Formula.false_ in
      sv.(0) <- Formula.bool is_context;
      let live = ref is_context in
      let tagc = Flat.tag_code flat i in
      for ix = 1 to n - 1 do
        let f =
          match plan.fsel.(ix - 1) with
          | FMove code ->
              if code = -2 || code = tagc then sv_p.(ix - 1)
              else Formula.false_
          | FDos -> Formula.disj sv_p.(ix) sv.(ix - 1)
          | FFilter q -> (
              match sv.(ix - 1) with
              | Formula.False -> Formula.false_
              | prev -> Formula.conj prev (sat i q))
        in
        sv.(ix) <- f;
        match f with Formula.False -> () | _ -> live := true
      done;
      (match sv.(n - 1) with
      | Formula.False -> ()
      | f -> emit (Flat.orig flat i) f);
      if !live then begin
        let rec each c =
          if c >= 0 then begin
            go c ~is_context:false sv;
            each (Flat.next_sibling flat c)
          end
        in
        each (Flat.first_child flat i)
      end
      else skip_below i
    end
  in
  go 0 ~is_context init;
  (!ops, List.rev !contexts)

(* ------------------------------------------------------------------ *)
(* the #document wrapper                                              *)
(* ------------------------------------------------------------------ *)

(* What a filter at the wrapper sees: no text, no attributes. *)
let doc_view =
  {
    Qual_pass.vtag = "#document";
    vtext = "";
    vnum = None;
    vattr = (fun _ -> None);
  }

let wraps plan ~is_root = is_root && plan.compiled.Compile.absolute

(* The wrapper's qualifier vector from slot 0's, charged as any element
   with one child: [2 * n_qual] ops. *)
let wrapper_qvec plan ~ops root_vec =
  let compiled = plan.compiled in
  ops := !ops + (2 * compiled.Compile.n_qual);
  Qual_pass.eval_entries compiled doc_view ~exists_child:(fun e ->
      Formula.disj Formula.false_ root_vec.(e))

(* The wrapper's selection vector from the parent vector [init]
   ([wsat q] is filter [q] at the wrapper); a last entry other than
   [False] goes to [emit] with the node {!Sel_pass.context_root}
   builds. *)
let wrapper_step plan flat ~init ~wsat ~emit =
  let compiled = plan.compiled in
  let n = compiled.Compile.n_sel in
  let sv = Array.make n Formula.false_ in
  sv.(0) <- Formula.true_;
  Array.iteri
    (fun j item ->
      sv.(j + 1) <-
        (match item with
        | Compile.Move test ->
            if Compile.matches test doc_view.Qual_pass.vtag then init.(j)
            else Formula.false_
        | Compile.Dos_item -> Formula.disj init.(j + 1) sv.(j)
        | Compile.Filter q ->
            if sv.(j) = Formula.false_ then Formula.false_
            else Formula.conj sv.(j) (wsat q)))
    compiled.Compile.sel;
  (match sv.(n - 1) with
  | Formula.False -> ()
  | f -> emit (fst (Sel_pass.context_root compiled (Flat.root flat))) f);
  sv

(* The selection half of one fragment: [sel_walk], from the wrapper's
   vector when [wraps] (charging the wrapper's [n_sel] ops). *)
let sel_from plan flat ~init ~is_root ~sat ~wsat ~emit =
  if wraps plan ~is_root then begin
    let sv = wrapper_step plan flat ~init ~wsat ~emit in
    let ops, contexts =
      sel_walk plan flat ~init:sv ~is_context:false ~sat ~emit
    in
    (Array.length sv + ops, contexts)
  end
  else sel_walk plan flat ~init ~is_context:is_root ~sat ~emit

(* ------------------------------------------------------------------ *)
(* qualifier pass (PaX3 stage 1, ParBoX)                              *)
(* ------------------------------------------------------------------ *)

type qual = {
  q_flat : Flat.t;
  q_n_qual : int;
  q_vecs : qvecs;
  q_wrap : Formula.t array option;
      (* the #document wrapper's vector, when the root fragment of an
         absolute query was wrapped *)
  q_root_vec : Formula.t array;  (* eval root's vector (wrapper if any) *)
  q_ops : int;
}

let qual_root_vec q = q.q_root_vec
let qual_ops q = q.q_ops
let qual_flat q = q.q_flat
let qual_vector q i = vector q.q_vecs ~n_qual:q.q_n_qual i

(* Bottom-up qualifier vectors of every slot, plus the wrapper's when
   [is_root] marks fragment 0 of an absolute query.  A virtual slot
   costs [n_qual] ops. *)
let qual_run plan flat ~is_root : qual =
  let n_qual = plan.compiled.Compile.n_qual in
  let ops = ref (n_qual * Flat.n_virtual flat) in
  let qv = qual_fill plan flat ~ops in
  let root_vec = vector qv ~n_qual 0 in
  let wrap =
    if wraps plan ~is_root then Some (wrapper_qvec plan ~ops root_vec)
    else None
  in
  {
    q_flat = flat;
    q_n_qual = n_qual;
    q_vecs = qv;
    q_wrap = wrap;
    q_root_vec = Option.value wrap ~default:root_vec;
    q_ops = !ops;
  }

(* Substitute in place, counting every entry of every slot's vector
   (virtual slots and wrapper included).  Ground entries are
   constants, which substitution leaves alone. *)
let qual_resolve q lookup =
  let subst_all vec =
    Array.iteri (fun e f -> vec.(e) <- Formula.subst lookup f) vec
  in
  Array.iter subst_all q.q_vecs.spine;
  let n = Flat.length q.q_flat * q.q_n_qual in
  match q.q_wrap with
  | Some wvec ->
      subst_all wvec;
      n + Array.length wvec
  | None -> n

(* ------------------------------------------------------------------ *)
(* selection pass (PaX3 stage 2)                                      *)
(* ------------------------------------------------------------------ *)

(* Top-down selection vectors, with qualifier satisfaction read from a
   resolved qualifier pass ([qual]), or trivially (empty vectors) when
   the query has no qualifier entries. *)
let sel_run plan flat ~init ~is_root ~(qual : qual option) : Sel_pass.outcome =
  let answers = ref [] in
  let candidates = ref [] in
  let sat i q =
    match qual with
    | Some qp -> sat_at flat qp.q_vecs i q
    | None -> fsat_view flat [||] i q
  in
  let wvec = match qual with Some { q_wrap = Some wv; _ } -> wv | _ -> [||] in
  let emit v = function
    | Formula.True -> answers := v :: !answers
    | f -> candidates := (v, f) :: !candidates
  in
  let ops, contexts =
    sel_from plan flat ~init ~is_root ~sat
      ~wsat:(Qual_pass.sat_view plan.compiled wvec doc_view)
      ~emit
  in
  {
    Sel_pass.answers = List.rev !answers;
    candidates = List.rev !candidates;
    contexts;
    ops;
  }

(* ------------------------------------------------------------------ *)
(* combined pass (PaX2 stage 1)                                       *)
(* ------------------------------------------------------------------ *)

type combined_outcome = {
  root_qvec : Formula.t array;
  answers : Tree.node list;
  candidates : (Tree.node * Formula.t) list;
  contexts : (int * Formula.t array) list;
  ops : int;
}

(* PaX2's combined pass.  The paper interleaves a pre-order selection
   half, whose filters read placeholder variables for qualifier
   values not yet computed, with a post-order qualifier half that binds
   them, and substitutes the bindings before returning.  Here the
   qualifier half runs first ([qual_fill]) and the selection half after
   it, so a placeholder is keyed by slot — [Qual_at (slot, e)], the
   wrapper's [Qual_at (-1, e)] — and is bound by reading the slot's
   vector.  Placeholders never leave the pass; the selection half still
   builds them, since the ops and pending candidates depend on them. *)
let combined_run plan flat ~init ~is_root : combined_outcome =
  let compiled = plan.compiled in
  let n_qual = compiled.Compile.n_qual in
  let pending = ref [] in
  let ops = ref 0 in
  let qv = qual_fill plan flat ~ops in
  let sat_pre_slot i q =
    let rec go = function
      | FSat_empty -> Formula.true_
      | FSat e -> Formula.var (Var.Qual_at (i, e))
      | FText_eq s -> Formula.bool (Flat.text_equals flat i s)
      | FVal_cmp (op, num) ->
          Formula.bool
            (match Flat.num flat i with
            | Some f -> Ast.compare_num op f num
            | None -> false)
      | FAttr_test (key, expected) ->
          Formula.bool (Flat.attr_test flat i ~key ~expected)
      | FNot q -> Formula.not_ (go q)
      | FAnd (a, b) -> Formula.conj (go a) (go b)
      | FOr (a, b) -> Formula.disj (go a) (go b)
    in
    go q
  in
  let wsat q =
    let placeholders =
      Array.init n_qual (fun e -> Formula.var (Var.Qual_at (-1, e)))
    in
    Qual_pass.sat_view compiled placeholders doc_view q
  in
  let emit v f = pending := (v, f) :: !pending in
  let walk_ops, contexts =
    sel_from plan flat ~init ~is_root ~sat:sat_pre_slot ~wsat ~emit
  in
  ops := !ops + walk_ops;
  let root_vec = vector qv ~n_qual 0 in
  let root_qvec =
    if wraps plan ~is_root then wrapper_qvec plan ~ops root_vec else root_vec
  in
  let sigma_lookup = function
    | Var.Qual_at (slot, e) ->
        Some (if slot >= 0 then entry qv slot e else root_qvec.(e))
    | Var.Qual _ | Var.Sel_ctx _ -> None
  in
  let answers = ref [] in
  let candidates = ref [] in
  List.iter
    (fun ((v : Tree.node), f) ->
      ops := !ops + 1;
      let g = Formula.subst sigma_lookup f in
      match Formula.to_bool g with
      | Some true -> if v.Tree.id >= 0 then answers := v :: !answers
      | Some false -> ()
      | None -> candidates := (v, g) :: !candidates)
    (List.rev !pending);
  let contexts =
    List.map
      (fun (fid, vec) -> (fid, Array.map (Formula.subst sigma_lookup) vec))
      contexts
  in
  {
    root_qvec;
    answers = List.rev !answers;
    candidates = List.rev !candidates;
    contexts;
    ops = !ops;
  }
