(* Input generation: everything the program sees is derived here from
   the workload seed — the FT2 fragment tree of the paper's
   Experiment 2, the partitioned graph the reachability engine runs
   over, and the query sequences each workload replays. *)

module Tree = Pax_xml.Tree
module Fragment = Pax_frag.Fragment
module Xmark = Pax_xmark.Xmark
module Rng = Pax_xmark.Rng
module Gfrag = Pax_graph.Gfrag

(* ---------------- FT2 --------------------------------------------- *)

(* Ten fragments in the paper's 5/12/28/8 ratio over 104 units:
     F0 = root + whole site1 (5)        F3 = whole site4 (5)
     F1 = site2 spine with its regions (12), open_auctions (12) and
          closed_auctions (8) cut out
     F2 = site3 spine with its regions (12), open_auctions (12) and
          closed_auctions (28) cut out
   [units] scales the whole tree: one unit is Xmark.nodes_per_mb
   nodes at 104 units, so 104 is paper scale and 13 an eighth of it. *)
(* The seed of the data (the FT2 tree and the graph).  The workload
   seed shapes the query sequences only: data generated from it made
   the slowest queries' cost, and so the latency tail, differ from seed
   to seed by more than the host's noise. *)
let data_seed = 1

let ft2 ~seed ~units : Fragment.t =
  let u x = units * Xmark.nodes_per_mb * x / 104 in
  let b = Tree.builder () in
  let rng = Rng.create ~seed:(7919 * seed + units) in
  let plain nodes = Xmark.site b (Rng.split rng) ~nodes in
  let skewed ~closed_u =
    Xmark.site_custom b (Rng.split rng) ~regions:(u 12) ~categories:(u 1)
      ~people:(u 3) ~open_auctions:(u 12) ~closed_auctions:(u closed_u)
  in
  let site1 = plain (u 5) in
  let site2 = skewed ~closed_u:8 in
  let site3 = skewed ~closed_u:28 in
  let site4 = plain (u 5) in
  let doc = Tree.doc_of_root (Tree.elem b "sites" [ site1; site2; site3; site4 ]) in
  let section (site : Tree.node) tag =
    match
      List.find_opt (fun (c : Tree.node) -> c.Tree.tag = tag) site.Tree.children
    with
    | Some n -> n.Tree.id
    | None -> invalid_arg ("ft2: missing section " ^ tag)
  in
  Fragment.fragmentize doc
    ~cuts:
      ([ site2.Tree.id; site3.Tree.id; site4.Tree.id ]
      @ List.concat_map
          (fun s ->
            List.map (section s) [ "regions"; "open_auctions"; "closed_auctions" ])
          [ site2; site3 ])

let node_count (ft : Fragment.t) =
  List.fold_left
    (fun acc fid -> acc + Fragment.fragment_node_count (Fragment.fragment ft fid))
    0
    (List.init (Fragment.n_fragments ft) Fun.id)

(* ---------------- queries ----------------------------------------- *)

(* The three engines every XPath workload mixes. *)
let engines = [ "pax2"; "pax3"; "pax2-xa" ]

(* The paper's Fig. 7 queries, Q1-Q4. *)
let base_queries = List.map snd Xmark.queries

(* The Q3 family: one variant per (age threshold, country) — 43 x 7 =
   301 distinct texts, each a distinct stage-cache key. *)
let q3_family =
  let countries = [ "US"; "Canada"; "Germany"; "Japan"; "France"; "Brazil"; "India" ] in
  List.concat_map
    (fun age ->
      List.map
        (fun c ->
          Printf.sprintf
            "/sites/site/people/person[profile/age > %d and address/country = \
             \"%s\"]/creditcard"
            age c)
        countries)
    (List.init 43 (fun i -> 18 + i))

(* One workload operation: the engine to mount-route to and the query
   text. *)
type op = { engine : string; text : string }

let base_ops =
  List.concat_map
    (fun engine -> List.map (fun text -> { engine; text }) base_queries)
    engines

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A balanced mix: consecutive blocks, each a seeded shuffle of
   [block ()], so every operation's share is exact and only the order
   depends on the seed. *)
let balanced ~seed ~n block =
  let rng = Rng.create ~seed in
  let rec fill acc len =
    if len >= n then Array.sub (Array.concat (List.rev acc)) 0 n
    else
      let b = Array.of_list (block ()) in
      shuffle rng b;
      fill (b :: acc) (len + Array.length b)
  in
  fill [] 0

(* Zipf(s = 1) over (engine, query) pairs from Q1-Q4 plus the Q3
   family.  The ranks come from a fixed shuffle, so every seed has the
   same hot set and the mix's cost does not swing with the seed; the
   seed picks where a golden-ratio sequence starts, and that sequence
   walks the Zipf distribution so each pair's share of any stretch of
   the run is close to its probability. *)
let zipf_ops ~seed ~n =
  let items =
    Array.of_list
      (List.concat_map
         (fun engine ->
           List.map (fun text -> { engine; text }) (base_queries @ q3_family))
         engines)
  in
  shuffle (Rng.create ~seed:2007) items;
  let m = Array.length items in
  let cum = Array.make m 0. in
  let acc = ref 0. in
  for k = 0 to m - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cum.(k) <- !acc
  done;
  let pick x =
    let lo = ref 0 and hi = ref (m - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) > x then hi := mid else lo := mid + 1
    done;
    items.(!lo)
  in
  let start = Rng.float (Rng.create ~seed) 1. in
  let phi = (sqrt 5. -. 1.) /. 2. in
  Array.init n (fun i -> pick (!acc *. Float.rem (start +. (float_of_int i *. phi)) 1.))

let distinct ops = List.sort_uniq compare (Array.to_list ops)

(* ---------------- partitioned graph ------------------------------- *)

(* [n] nodes in [frags] contiguous blocks, two random out-edges per
   node inside its block, and exactly [cross] edges out of every block,
   the j-th into block f + 1 + j mod (frags - 1): every fragment has
   about [cross] entry nodes (the reachability engine's |Vf|) whatever
   the seed, so per-query cost does not swing with it. *)
let graph ~seed ~n ~frags ~cross =
  let rng = Rng.create ~seed:(104729 * seed + n) in
  let block = (n + frags - 1) / frags in
  let owner = Array.init n (fun v -> v / block) in
  let in_block f = (f * block) + Rng.int rng (min block (n - (f * block))) in
  let local =
    List.concat (List.init n (fun v -> List.init 2 (fun _ -> (v, in_block owner.(v)))))
  in
  let crossing =
    List.concat
      (List.init frags (fun f ->
           List.init cross (fun j ->
               (in_block f, in_block ((f + 1 + (j mod (frags - 1))) mod frags)))))
  in
  Gfrag.partition ~n ~edges:(local @ crossing) ~owner

let reach_queries ~seed ~n ~count =
  let rng = Rng.create ~seed:(15485863 * seed + count) in
  List.init count (fun _ ->
      Gfrag.query_string ~src:(Rng.int rng n) ~dst:(Rng.int rng n))
