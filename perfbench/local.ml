(* The in-process workload: FT2 at half the paper's scale and a
   partitioned graph, queried one at a time through Pe.run_text — no
   sockets, no scheduler, so the flat kernels, evalFT and the domain
   pool are what is measured.

   Reachability queries run on [domains] = the machine's core count.
   XPath queries run on one domain: on more, the engines' per-run flat
   plan (a [lazy] the visit closures force on the domain pool) races
   and fails a query now and then with CamlinternalLazy.Undefined, a
   known defect of the engines, and a benchmark must fail the same
   number of operations on every run of the same code.  When the plan
   is built before the first round, XPath goes back to [domains]. *)

module Fragment = Pax_frag.Fragment
module Engines = Pax_core.Engines
module Pe = Pax_engine.Pe
module Reach = Pax_graph.Reach

type cfg = {
  units : int;
  graph_nodes : int;
  cross : int;  (** graph edges out of each fragment *)
  reach_per_block : int;  (** reachability queries per 12 XPath ones *)
  reach_pool : int;  (** distinct reachability queries per seed *)
}

let local_large =
  { units = 52; graph_nodes = 4_000; cross = 8; reach_per_block = 3; reach_pool = 24 }

let now = Layers.now

let domains_for ~domains engine = if engine = "reach" then domains else 1

type world = { ft : Fragment.t; engines : (string * Pe.packed) list; n_frags : int }

(* One set-up: generate FT2 and the graph, build the engines (one site
   per fragment), and run every base (engine, query) and a few
   reachability queries once. *)
let build cfg ~units ~graph_nodes ~domains =
  Layers.reset ();
  let t0 = now () in
  let ft = Gen.ft2 ~seed:Gen.data_seed ~units in
  let n_frags = Fragment.n_fragments ft in
  let g = Gen.graph ~seed:Gen.data_seed ~n:graph_nodes ~frags:n_frags ~cross:cfg.cross in
  let t1 = now () in
  let engines =
    ("reach", Reach.engine g ~n_sites:n_frags ~assign:Fun.id)
    :: List.map
         (fun e -> (e, (Option.get (Engines.of_name e)) ft ~n_sites:n_frags ~assign:Fun.id))
         Gen.engines
  in
  let w = { ft; engines = List.map (fun (n, e) -> (n, Layers.wrap e)) engines; n_frags } in
  let t2 = now () in
  let warm =
    List.concat_map (fun engine -> List.map (fun text -> (engine, text)) Gen.base_queries) Gen.engines
    @ List.map (fun text -> ("reach", text)) (Gen.reach_queries ~seed:Gen.data_seed ~n:graph_nodes ~count:4)
  in
  List.iter
    (fun (engine, text) ->
      (* A warm-up query that fails is not retried or hidden: the
         failure counts in the timed phase's figures, where the same
         query recurs. *)
      match
        Pe.run_text (List.assoc engine w.engines) ~domains:(domains_for ~domains engine) text
      with
      | o -> ignore (Layers.claim o)
      | exception ex ->
          prerr_endline ("perfbench: warm-up query raised " ^ Printexc.to_string ex))
    warm;
  let t3 = now () in
  (w, engines, (t1 -. t0, t2 -. t1, t3 -. t2))

(* Balanced blocks of the 12 XPath (engine, query) pairs plus
   [reach_per_block] reachability queries, taken in turn from a pool
   drawn with the data, starting where the seed says.  A pool drawn
   from the workload seed made the mix's cost follow the seed. *)
let ops cfg ~seed ~n ~graph_nodes =
  let pool =
    Array.of_list (Gen.reach_queries ~seed:Gen.data_seed ~n:graph_nodes ~count:cfg.reach_pool)
  in
  let k = ref seed in
  Gen.balanced ~seed ~n (fun () ->
      Gen.base_ops
      @ List.init cfg.reach_per_block (fun _ ->
            incr k;
            { Gen.engine = "reach"; text = pool.(!k mod Array.length pool) }))

let setups_per_run = 9

let run cfg ~seed ~seconds ~trace ~tiny : Report.run =
  let units = if tiny then 2 else cfg.units in
  let graph_nodes = if tiny then 2_000 else cfg.graph_nodes in
  let domains = Domain.recommended_domain_count () in
  let setups = ref [] and last = ref None in
  for _ = 1 to setups_per_run do
    last := None;
    let t0 = now () in
    let w, plain, (g, b, wm) = build cfg ~units ~graph_nodes ~domains in
    setups := (now () -. t0, g, b, wm) :: !setups;
    last := Some (w, plain)
  done;
  let w, plain = Option.get !last in
  let ops = ops cfg ~seed ~n:(max 64 (int_of_float (seconds *. 60.))) ~graph_nodes in
  (* References: sequential (domains:1) runs of the unwrapped engines. *)
  let refs = Hashtbl.create 64 in
  List.iter
    (fun (op : Gen.op) ->
      let o = Pe.run_text (List.assoc op.engine plain) ~domains:1 op.text in
      Hashtbl.replace refs op o.Pe.answer_keys)
    (Gen.distinct ops);
  let acc = Acc.create () in
  let n_ops = Array.length ops in
  let next = ref 0 in
  let loop duration =
    let t_start = now () in
    let deadline = t_start +. duration in
    while now () < deadline do
      let qid = !next in
      incr next;
      let op = ops.(qid mod n_ops) in
      let started = now () in
      let ending =
        match
          Pe.run_text (List.assoc op.Gen.engine w.engines)
            ~domains:(domains_for ~domains op.Gen.engine) op.Gen.text
        with
        | o -> Acc.Done o
        | exception ex -> Acc.Raised ex
      in
      Acc.query acc ~qid ~reference:(Hashtbl.find refs op) ~started ~ending ~sample:true
        ~window:(t_start, deadline) ();
      Calib.sample ()
    done
  in
  Gc.compact ();
  let capacity_qps =
    if trace then begin
      loop (seconds /. 2.);
      Atomic.set Layers.tracing true;
      loop (seconds /. 2.);
      Atomic.set Layers.tracing false;
      Trace_out.write ~workload:"local-large" ~seed [];
      0.
    end
    else begin
      loop seconds;
      Acc.capacity acc
    end
  in
  if acc.Acc.raised > 0 then
    Printf.eprintf "perfbench: %d of %d queries raised\n%!" acc.Acc.raised acc.Acc.attempted;
  {
    Report.input =
      {
        Report.acc;
        setups = !setups;
        capacity_qps;
        rss_mb = Sites.peak_rss_mb 0;
        factors =
          (let q = Calib.in_process_factor () in
           { Report.f_p50 = q; f_p99 = q; f_capacity = q; f_setup = Calib.cpu_factor () });
        server = None;
        unavailable =
          [
            ("sched.", "queries are run sequentially, not through the scheduler");
            ("transport.", "in-process: no transport");
            ("cache.", "in-process runs consult no stage cache");
            ("server.", "no site servers");
            ("shard.", "no live moves on this workload");
          ];
      };
    checks = [ ("answers match the references", acc.Acc.mismatched = 0) ];
    constants =
      [
        ("ft2_units", string_of_int units);
        ("nodes", string_of_int (Gen.node_count w.ft));
        ("fragments", string_of_int w.n_frags);
        ("domains_reach", string_of_int domains);
        ("domains_xpath", "1");
        ("graph_nodes", string_of_int graph_nodes);
        ("graph_cross_edges_per_fragment", string_of_int cfg.cross);
        ("reach_per_12_xpath", string_of_int cfg.reach_per_block);
        ("reach_pool", string_of_int cfg.reach_pool);
        ("mix", "balanced blocks: Q1-Q4 x 3 engines + reachability");
        ("distinct_ops", string_of_int (Hashtbl.length refs));
      ];
  }
