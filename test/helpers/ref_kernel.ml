(* The pointer-walking stage passes, kept as the reference the flat
   kernel ({!Pax_core.Flat_pass}) is checked against.

   These are the recurrences of the paper as first written here:
   recursion over [Tree.node] children, one formula vector per node.
   The engines no longer run them; test/test_engine_seam.ml compares
   every flat pass with them, formula for formula, on every fragment —
   the check on the flat kernel's ground-mask and dead-subtree
   shortcuts (docs/FLATTREE.md).  Linked only by tests. *)

module Tree = Pax_xml.Tree
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var
module Qual_view = Pax_core.Qual_pass

(* ------------------------------------------------------------------ *)
(* Qualifier pass (PaX3 stage 1, ParBoX)                              *)
(* ------------------------------------------------------------------ *)

module Qual_pass = struct
  type t = {
    vectors : (int, Formula.t array) Hashtbl.t;  (* node id → vector *)
    root_vec : Formula.t array;  (* the fragment root's vector, shipped *)
    ops : int;  (* vector-entry operations performed *)
  }

  let view_of_node (v : Tree.node) : Qual_view.view =
    {
      Qual_view.vtag = v.Tree.tag;
      vtext = Tree.text_of v;
      vnum = Tree.float_of v;
      vattr = Tree.attr v;
    }

  (* Satisfaction of a filter at [v] given the node's qualifier
     vector.  Ground when the vector is ground. *)
  let sat compiled vec v q =
    Qual_view.sat_view compiled vec (view_of_node v) q

  let eval_node compiled ~ops (v : Tree.node)
      (child_vecs : Formula.t array list) : Formula.t array =
    let n_qual = compiled.Compile.n_qual in
    match v.kind with
    | Tree.Virtual fid ->
        ops := !ops + n_qual;
        Qual_view.virtual_vec compiled fid
    | Tree.Element ->
        ops := !ops + (n_qual * (1 + List.length child_vecs));
        let exists_child e =
          List.fold_left
            (fun acc cv -> Formula.disj acc cv.(e))
            Formula.false_ child_vecs
        in
        Qual_view.eval_entries compiled (view_of_node v) ~exists_child

  let run compiled (root : Tree.node) : t =
    let vectors = Hashtbl.create 256 in
    let ops = ref 0 in
    let rec go v =
      let child_vecs = List.map go v.Tree.children in
      let vec = eval_node compiled ~ops v child_vecs in
      Hashtbl.replace vectors v.Tree.id vec;
      vec
    in
    let root_vec = go root in
    { vectors; root_vec; ops = !ops }

  (* Substitutes boundary variables in every stored vector (in place),
     returning the operation count. *)
  let resolve t lookup =
    let n = ref 0 in
    Hashtbl.iter
      (fun _ vec ->
        n := !n + Array.length vec;
        Array.iteri (fun i f -> vec.(i) <- Formula.subst lookup f) vec)
      t.vectors;
    !n
end

(* ------------------------------------------------------------------ *)
(* Selection pass (PaX3 stage 2)                                      *)
(* ------------------------------------------------------------------ *)

module Sel_pass = struct
  include Pax_core.Sel_pass

  (* SV recurrence for one node, given the parent's vector.  Entry 0 is
     the "is the context node" bit, filled by the caller. *)
  let eval_entries compiled ~sat (v : Tree.node) (sv_p : Formula.t array)
      (sv : Formula.t array) =
    let items = compiled.Compile.sel in
    for i = 1 to Array.length items do
      match items.(i - 1) with
      | Compile.Move test ->
          sv.(i) <-
            (if Compile.matches test v.tag then sv_p.(i - 1) else Formula.false_)
      | Compile.Dos_item -> sv.(i) <- Formula.disj sv_p.(i) sv.(i - 1)
      | Compile.Filter q ->
          (* Dead prefixes never consult their qualifier. *)
          sv.(i) <-
            (if sv.(i - 1) = Formula.false_ then Formula.false_
             else Formula.conj sv.(i - 1) (sat v q))
    done

  (* [run compiled ~init ~root_is_context ~sat root]: [init] is the
     vector of the root's parent, [sat v q] qualifier satisfaction at
     [v]. *)
  let run compiled ~init ~root_is_context ~sat (root : Tree.node) : outcome =
    let n = compiled.Compile.n_sel in
    let last = n - 1 in
    let ops = ref 0 in
    let answers = ref [] in
    let candidates = ref [] in
    let contexts = ref [] in
    let rec go (v : Tree.node) ~is_context (sv_p : Formula.t array) =
      match v.kind with
      | Tree.Virtual fid ->
          (* The parent's vector is exactly what the sub-fragment's
             Sel_ctx variables stand for (paper: returnSet). *)
          contexts := (fid, Array.copy sv_p) :: !contexts
      | Tree.Element ->
          ops := !ops + n;
          let sv = Array.make n Formula.false_ in
          sv.(0) <- Formula.bool is_context;
          eval_entries compiled ~sat v sv_p sv;
          (match Formula.to_bool sv.(last) with
          | Some true -> answers := v :: !answers
          | Some false -> ()
          | None -> candidates := (v, sv.(last)) :: !candidates);
          List.iter (fun c -> go c ~is_context:false sv) v.children
    in
    go root ~is_context:root_is_context init;
    {
      answers = List.rev !answers;
      candidates = List.rev !candidates;
      contexts = List.rev !contexts;
      ops = !ops;
    }
end

(* ------------------------------------------------------------------ *)
(* PaX2's combined traversal                                          *)
(* ------------------------------------------------------------------ *)

module Combined = struct
  type outcome = Pax_core.Flat_pass.combined_outcome = {
    root_qvec : Formula.t array;
    answers : Tree.node list;
    candidates : (Tree.node * Formula.t) list;
    contexts : (int * Formula.t array) list;
    ops : int;
  }

  (* Qualifier entries that selection filters consult: for these the
     pre-order half issues Qual_at placeholders. *)
  let placeholder_entries compiled =
    let rec refs acc = function
      | Compile.Sat pi ->
          let p = compiled.Compile.paths.(pi) in
          if Array.length p.Compile.items = 0 then acc
          else p.Compile.sat.(0) :: acc
      | Compile.Text_eq _ | Compile.Val_cmp _ | Compile.Attr_test _ -> acc
      | Compile.Qnot q -> refs acc q
      | Compile.Qand (a, b) | Compile.Qor (a, b) -> refs (refs acc a) b
    in
    Array.fold_left
      (fun acc item ->
        match item with
        | Compile.Filter q -> refs acc q
        | Compile.Move _ | Compile.Dos_item -> acc)
      [] compiled.Compile.sel
    |> List.sort_uniq compare

  let run compiled ~init ~root_is_context (root : Tree.node) : outcome =
    let n_sel = compiled.Compile.n_sel in
    let last = n_sel - 1 in
    let placeholders = placeholder_entries compiled in
    let sigma : (int * int, Formula.t) Hashtbl.t = Hashtbl.create 64 in
    (* Nodes that actually issued a placeholder; only those need a sigma
       entry at post-order. *)
    let issued : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let pending = ref [] in
    let contexts = ref [] in
    let ops = ref 0 in
    (* Pre-order filter satisfaction: data-local tests evaluate now,
       path satisfactions become placeholders resolved post-order. *)
    let sat_pre (v : Tree.node) q =
      let rec go = function
        | Compile.Sat pi ->
            let p = compiled.Compile.paths.(pi) in
            if Array.length p.Compile.items = 0 then Formula.true_
            else begin
              Hashtbl.replace issued v.Tree.id ();
              Formula.var (Var.Qual_at (v.Tree.id, p.Compile.sat.(0)))
            end
        | Compile.Text_eq s -> Formula.bool (Tree.text_of v = s)
        | Compile.Val_cmp (op, num) ->
            Formula.bool
              (match Tree.float_of v with
              | Some f -> Pax_xpath.Ast.compare_num op f num
              | None -> false)
        | Compile.Attr_test (name, value) ->
            Formula.bool
              (match (Tree.attr v name, value) with
              | Some _, None -> true
              | Some actual, Some expected -> actual = expected
              | None, _ -> false)
        | Compile.Qnot q -> Formula.not_ (go q)
        | Compile.Qand (a, b) -> Formula.conj (go a) (go b)
        | Compile.Qor (a, b) -> Formula.disj (go a) (go b)
      in
      go q
    in
    let rec go (v : Tree.node) ~is_context (sv_p : Formula.t array) :
        Formula.t array =
      match v.kind with
      | Tree.Virtual fid ->
          contexts := (fid, Array.copy sv_p) :: !contexts;
          Array.init compiled.Compile.n_qual (fun e ->
              Formula.var (Var.Qual (fid, e)))
      | Tree.Element ->
          (* Pre-order: selection entries with placeholders; dead
             prefixes never consult their qualifier. *)
          ops := !ops + n_sel;
          let sv = Array.make n_sel Formula.false_ in
          sv.(0) <- Formula.bool is_context;
          Array.iteri
            (fun j item ->
              let i = j + 1 in
              match item with
              | Compile.Move test ->
                  sv.(i) <-
                    (if Compile.matches test v.tag then sv_p.(j)
                     else Formula.false_)
              | Compile.Dos_item -> sv.(i) <- Formula.disj sv_p.(i) sv.(i - 1)
              | Compile.Filter q ->
                  sv.(i) <-
                    (if sv.(i - 1) = Formula.false_ then Formula.false_
                     else Formula.conj sv.(i - 1) (sat_pre v q)))
            compiled.Compile.sel;
          if sv.(last) <> Formula.false_ then pending := (v, sv.(last)) :: !pending;
          let child_vecs =
            List.map (fun c -> go c ~is_context:false sv) v.children
          in
          (* Post-order: qualifier vector, then local unification of the
             placeholders this node's filters introduced. *)
          let qvec = Qual_pass.eval_node compiled ~ops v child_vecs in
          if Hashtbl.mem issued v.Tree.id then
            List.iter
              (fun e -> Hashtbl.replace sigma (v.Tree.id, e) qvec.(e))
              placeholders;
          qvec
    in
    let root_qvec = go root ~is_context:root_is_context init in
    let sigma_lookup = function
      | Var.Qual_at (nid, e) -> Hashtbl.find_opt sigma (nid, e)
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
      List.rev_map
        (fun (fid, vec) -> (fid, Array.map (Formula.subst sigma_lookup) vec))
        !contexts
    in
    {
      root_qvec;
      answers = List.rev !answers;
      candidates = List.rev !candidates;
      contexts;
      ops = !ops;
    }
end
