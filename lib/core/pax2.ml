module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Measure = Pax_dist.Measure
module Wire = Pax_wire.Wire

let spf = Printf.sprintf

module Combined = struct
  (* One type with the flat pass, so the wire server and the tests can
     hold outcomes from either representation. *)
  type outcome = Flat_pass.combined_outcome = {
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

let run ?(annotations = false) ?flat (cl : Cluster.t) (q : Query.t) :
    Run_result.t =
  Cluster.reset cl;
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  let compiled = q.Query.compiled in
  let use_flat =
    match flat with Some b -> b | None -> Flat_pass.enabled ()
  in
  (* Built before the first round: the visits share it across
     domains. *)
  let fplan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  let analysis = if annotations then Some (Annot.analyze compiled ft) else None in
  let relevant fid =
    match analysis with None -> true | Some a -> a.Annot.relevant.(fid)
  in
  let eval_roots =
    Array.init n_frag (fun fid ->
        let root = (Fragment.fragment ft fid).Fragment.root in
        if fid = 0 then fst (Sel_pass.context_root compiled root) else root)
  in
  let init_for fid =
    if fid = 0 then Sel_pass.blank_init compiled
    else
      match analysis with
      | Some a -> Annot.init_of_ctx compiled ~fid a.Annot.ctx.(fid)
      | None -> Sel_pass.symbolic_init compiled ~fid
  in

  (* ---------------- Stage 1: combined pass, relevant sites --------- *)
  let rel_fids = List.filter relevant (Fragment.top_down ft) in
  (* Per-fragment stage-1 views, filled either by the in-process
     executor or by parsing wire replies — everything downstream
     (accounting, unification, answer assembly) reads only these, so
     both backends are observably identical.  [local_cands] holds the
     actual candidate formulas and exists only in-process; a remote
     site keeps its candidates to itself until the resolution stage. *)
  let s1_seen = Array.make n_frag false in
  let s1_qvec : Formula.t array array = Array.make n_frag [||] in
  let s1_ctxs : (int * Formula.t array) list array = Array.make n_frag [] in
  let s1_answers : Tree.node list array = Array.make n_frag [] in
  let s1_cands = Array.make n_frag 0 in
  let local_cands : (Tree.node * Formula.t) list array = Array.make n_frag [] in
  let fill_view fid (fr : Wire.frag_result) =
    s1_qvec.(fid) <-
      (match fr.Wire.fr_vec with
      | Some vec -> vec
      | None when compiled.Compile.n_qual = 0 -> [||]
      | None -> invalid_arg "PaX2: stage-1 reply lacks vector");
    s1_ctxs.(fid) <- fr.Wire.fr_ctxs;
    s1_answers.(fid) <- List.map Wire.node_of_answer fr.Wire.fr_answers;
    s1_cands.(fid) <- fr.Wire.fr_cands;
    s1_seen.(fid) <- true
  in
  (* Cross-query cache (transport path only; Stage_cache.noop unless a
     serving layer installed one).  A hit prefills the stage-1 view and
     elides the fragment from the round — no visit, no vector/answer
     traffic, no site ops, exactly as if the wire reply from the run
     that warmed the cache were replayed.  Only fully-resolved results
     (fr_cands = 0) are cached: a fragment retaining candidates has
     server-side state stage 2 must revisit. *)
  let cache = Cluster.stage_cache cl in
  let use_cache = Cluster.transport_active cl in
  let qkey =
    if use_cache then
      spf "%s|annot=%b" (Pax_xpath.Normal.to_string q.Query.normal) annotations
    else ""
  in
  let from_cache = Array.make n_frag false in
  if use_cache then
    List.iter
      (fun fid ->
        match cache.Pax_dist.Stage_cache.lookup ~qkey ~fid with
        | Some fr when fr.Wire.fr_cands = 0 && fr.Wire.fr_fid = fid ->
            fill_view fid fr;
            from_cache.(fid) <- true
        | Some _ | None -> ())
      rel_fids;
  let stage1_sites =
    Cluster.sites_holding cl
      (List.filter (fun fid -> not from_cache.(fid)) rel_fids)
  in
  (* Stage state is keyed by fid within the round: a replayed visit
     (lost reply under a fault plan) finds the view already filled
     and neither recomputes nor double-counts. *)
  let s1_local site =
    List.iter
      (fun fid ->
        if relevant fid && not s1_seen.(fid) then begin
          let oc =
            if use_flat then
              Flat_pass.combined_run fplan
                (Fragment.flat ft fid) ~init:(init_for fid)
                ~is_root:(fid = 0)
            else
              Combined.run compiled ~init:(init_for fid)
                ~root_is_context:(fid = 0) eval_roots.(fid)
          in
          s1_qvec.(fid) <- oc.Combined.root_qvec;
          s1_ctxs.(fid) <- oc.Combined.contexts;
          s1_answers.(fid) <- oc.Combined.answers;
          s1_cands.(fid) <- List.length oc.Combined.candidates;
          local_cands.(fid) <- oc.Combined.candidates;
          s1_seen.(fid) <- true;
          Cluster.add_ops cl ~site oc.Combined.ops
        end)
      (Cluster.fragments_on cl site)
  in
  let s1_remote =
    {
      Cluster.build =
        (fun site ->
          Wire.Pax2_stage1
            {
              query = q.Query.source;
              frags =
                List.filter_map
                  (fun fid ->
                    if relevant fid then
                      Some
                        {
                          Wire.fe_fid = fid;
                          fe_is_root = fid = 0;
                          (* Derivable inits stay implicit; only the
                             annotation-pruned vectors ship. *)
                          fe_init =
                            (if annotations then Some (init_for fid) else None);
                        }
                    else None)
                  (Cluster.fragments_on cl site);
            });
      parse =
        (fun site reply ->
          match reply with
          | Wire.Frag_results frs ->
              List.iter
                (fun (fr : Wire.frag_result) ->
                  let fid = fr.Wire.fr_fid in
                  if not s1_seen.(fid) then begin
                    fill_view fid fr;
                    Cluster.add_ops cl ~site fr.Wire.fr_ops;
                    if use_cache && fr.Wire.fr_cands = 0 then
                      cache.Pax_dist.Stage_cache.store ~qkey ~fid fr
                  end)
                frs
          | Wire.Final_answers _ ->
              invalid_arg "PaX2: unexpected stage-1 reply");
    }
  in
  let remote_if_net rm =
    if Cluster.transport_active cl then Some rm else None
  in
  ignore
    (Cluster.run_round cl
       ?remote:(remote_if_net s1_remote)
       ~label:"stage1" ~sites:stage1_sites s1_local);
  List.iter
    (fun site ->
      Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Query
        ~bytes:(Measure.query q) ~label:"Q";
      List.iter
        (fun fid ->
          (* Cache-hit fragments were not visited: their vectors and
             answers are already coordinator-side, so nothing travels. *)
          if s1_seen.(fid) && not from_cache.(fid) then begin
            if compiled.Compile.n_qual > 0 then
              Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors
                ~bytes:(Measure.formula_array s1_qvec.(fid))
                ~label:(spf "QV(F%d)" fid);
            List.iter
              (fun (sub, vec) ->
                Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors
                  ~bytes:(Measure.formula_array vec)
                  ~label:(spf "SV(F%d)" sub))
              s1_ctxs.(fid);
            if s1_answers.(fid) <> [] then
              Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Answers
                ~bytes:(Measure.answers s1_answers.(fid))
                ~label:(spf "ans(F%d)" fid)
          end)
        (Cluster.fragments_on cl site))
    stage1_sites;

  (* Coordinator: bottom-up qualifier unification, then top-down context
     unification (contexts may embed qualifier variables). *)
  let resolved_quals =
    Cluster.coord cl ~label:"evalFT:quals" (fun () ->
        Cluster.add_ops cl ~site:(-1) (n_frag * compiled.Compile.n_qual);
        Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
            if s1_seen.(fid) then Some s1_qvec.(fid) else None))
  in
  let qual_lookup = Eval_ft.qual_lookup resolved_quals in
  let raw_ctx : Formula.t array option array = Array.make n_frag None in
  Array.iteri
    (fun fid ctxs ->
      if s1_seen.(fid) then
        List.iter (fun (sub, vec) -> raw_ctx.(sub) <- Some vec) ctxs)
    s1_ctxs;
  let resolved_ctx =
    Cluster.coord cl ~label:"evalFT:contexts" (fun () ->
        Cluster.add_ops cl ~site:(-1) (n_frag * compiled.Compile.n_sel);
        Eval_ft.resolve_contexts ft
          ~root_ctx:(Array.make compiled.Compile.n_sel false)
          ~ctx_of:(fun fid -> raw_ctx.(fid))
          ~qual_lookup)
  in
  let full_lookup = Eval_ft.full_lookup ~quals:resolved_quals ~ctxs:resolved_ctx in

  (* ---------------- Stage 2: resolve candidates -------------------- *)
  let has_candidates fid = s1_seen.(fid) && s1_cands.(fid) > 0 in
  let cand_fids = List.filter has_candidates (Fragment.top_down ft) in
  let stage2_sites = Cluster.sites_holding cl cand_fids in
  (* Per-fid memo (replay idempotence under fault plans) as an array,
     not a shared hashtable: a fragment lives on exactly one site, so
     under a parallel round the worker domains write disjoint cells. *)
  let stage2_memo : Tree.node list option array = Array.make n_frag None in
  let s2_local site =
    List.concat_map
      (fun fid ->
        if has_candidates fid then
          match stage2_memo.(fid) with
          | Some answers -> answers
          | None ->
              let answers =
                List.filter_map
                  (fun ((v : Tree.node), f) ->
                    Cluster.add_ops cl ~site 1;
                    match Formula.to_bool (Formula.subst full_lookup f) with
                    | Some true when v.Tree.id >= 0 -> Some v
                    | Some _ -> None
                    | None -> invalid_arg "PaX2: candidate failed to resolve")
                  local_cands.(fid)
              in
              stage2_memo.(fid) <- Some answers;
              answers
        else [])
      (Cluster.fragments_on cl site)
  in
  let s2_remote =
    {
      Cluster.build =
        (fun site ->
          Wire.Pax2_stage2
            {
              frags =
                List.filter_map
                  (fun fid ->
                    if has_candidates fid then
                      Some
                        ( fid,
                          resolved_ctx.(fid),
                          List.map
                            (fun sub -> (sub, resolved_quals.(sub)))
                            ft.Fragment.children.(fid) )
                    else None)
                  (Cluster.fragments_on cl site);
            });
      parse =
        (fun site reply ->
          match reply with
          | Wire.Final_answers { answers; ops } ->
              Cluster.add_ops cl ~site ops;
              List.map Wire.node_of_answer answers
          | Wire.Frag_results _ ->
              invalid_arg "PaX2: unexpected stage-2 reply");
    }
  in
  let stage2_answers =
    Cluster.run_round cl
      ?remote:(remote_if_net s2_remote)
      ~label:"stage2" ~sites:stage2_sites s2_local
  in
  List.iter
    (fun site ->
      List.iter
        (fun fid ->
          if has_candidates fid then begin
            Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Resolution
              ~bytes:(Measure.bool_array resolved_ctx.(fid))
              ~label:(spf "SV*(F%d)" fid);
            List.iter
              (fun sub ->
                Cluster.send cl ~src:Coordinator ~dst:(Site site)
                  ~kind:Resolution
                  ~bytes:(Measure.bool_array resolved_quals.(sub))
                  ~label:(spf "QV*(F%d)" sub))
              ft.Fragment.children.(fid)
          end)
        (Cluster.fragments_on cl site))
    stage2_sites;
  List.iter
    (fun (site, answers) ->
      if answers <> [] then
        Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Answers
          ~bytes:(Measure.answers answers) ~label:"ans")
    stage2_answers;

  let certain = List.concat (Array.to_list s1_answers) in
  let answers = certain @ List.concat_map snd stage2_answers in
  Run_result.make ~trace:(Cluster.trace cl) ~query:q ~answers
    ~report:(Cluster.report cl) ()
