module Tree = Pax_xml.Tree
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

type outcome = {
  answers : Tree.node list;
  candidates : (Tree.node * Formula.t) list;
  contexts : (int * Formula.t array) list;
  ops : int;
}

let blank_init compiled = Array.make compiled.Compile.n_sel Formula.false_

let symbolic_init compiled ~fid =
  Array.init compiled.Compile.n_sel (fun i ->
      Formula.var (Var.Sel_ctx (fid, i)))

let context_root compiled (root : Tree.node) =
  if compiled.Compile.absolute then
    ( { Tree.id = -1; tag = "#document"; text = None; attrs = [];
        children = [ root ]; kind = Tree.Element },
      true )
  else (root, true)

let real_answers nodes =
  List.filter (fun (n : Tree.node) -> n.Tree.id >= 0) nodes
