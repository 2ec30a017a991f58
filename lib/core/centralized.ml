module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile

type result = {
  answers : Tree.node list;
  answer_ids : int list;
  qual_ops : int;
  sel_ops : int;
}

let run (q : Query.t) (root : Tree.node) : result =
  Tree.iter
    (fun n ->
      if Tree.is_virtual n then
        invalid_arg "Centralized.run: tree contains virtual nodes")
    root;
  let compiled = q.Query.compiled in
  let flat = Pax_xml.Flat.of_tree root in
  let plan = Flat_pass.make_plan compiled (Pax_xml.Flat.intern flat) in
  let qual, qual_ops =
    if Compile.no_qualifiers compiled then (None, 0)
    else begin
      let fq = Flat_pass.qual_run plan flat ~is_root:true in
      (Some fq, Flat_pass.qual_ops fq)
    end
  in
  let outcome =
    Flat_pass.sel_run plan flat ~init:(Sel_pass.blank_init compiled)
      ~is_root:true ~qual
  in
  assert (outcome.Sel_pass.candidates = []);
  let answers = Sel_pass.real_answers outcome.Sel_pass.answers in
  {
    answers;
    answer_ids = List.sort compare (List.map (fun (n : Tree.node) -> n.id) answers);
    qual_ops;
    sel_ops = outcome.Sel_pass.ops;
  }

let eval_ids q root = (run q root).answer_ids
