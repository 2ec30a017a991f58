(* Per-workload tallies: the end-to-end figures every query feeds, the
   per-layer samples traced queries feed, and the spans of the traced
   run.  One thread (the collector, or the caller of a sequential
   workload) updates an accumulator; the main thread reads it after
   that thread has ended. *)

module Pe = Pax_engine.Pe
module Cluster = Pax_dist.Cluster

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
  mutable audit_failed : int;
  mutable raised : int;
  mutable rejected : int;
  mutable ok : int;
  mutable lat_ms : float list;  (** successful latency samples *)
  mutable lat_traced_ms : float list;  (** the same, traced phases *)
  mutable completions : ((float * float) * float) list;
      (** correct completions inside a timed window: the window, the time *)
  mutable bytes : float;
  mutable visits : float;
  mutable comm_max : float;
  mutable comp_max : float;
  (* per-layer samples, traced queries only *)
  mutable traced : int;
  mutable submit_us : float list;
  mutable wait_ms : float list;
  mutable run_ms : float list;
  mutable self_ms : float list;
  mutable rounds : int;
  mutable coord_ms : float list;
  mutable parallel_ms : float list;
  mutable site_ms : float list;
  mutable ops : int;
  mutable retries : int;
  mutable site_s : float;
  mutable run_less_coord_s : float;
  mutable round_ms : float list;
  mutable round_s : float;
  mutable run_s : float;
  mutable frames : int;
  mutable frame_bytes : int;
  mutable lookups : int;
  mutable hits : int;
  mutable lookup_us : float list;
  mutable reach_ms : float list;
  mutable moves : int;
  mutable move_ms : float list;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    mismatched = 0;
    audit_failed = 0;
    raised = 0;
    rejected = 0;
    ok = 0;
    lat_ms = [];
    lat_traced_ms = [];
    completions = [];
    bytes = 0.;
    visits = 0.;
    comm_max = 0.;
    comp_max = 0.;
    traced = 0;
    submit_us = [];
    wait_ms = [];
    run_ms = [];
    self_ms = [];
    rounds = 0;
    coord_ms = [];
    parallel_ms = [];
    site_ms = [];
    ops = 0;
    retries = 0;
    site_s = 0.;
    run_less_coord_s = 0.;
    round_ms = [];
    round_s = 0.;
    run_s = 0.;
    frames = 0;
    frame_bytes = 0;
    lookups = 0;
    hits = 0;
    lookup_us = [];
    reach_ms = [];
    moves = 0;
    move_ms = [];
  }

(* Capacity: each timed window's completions split into consecutive
   groups of 20, each group's rate (20 over the time between its first
   completion and the next group's), and the median of those rates over
   all windows — so a stall of the shared machine during a few groups
   does not move it.  Too few completions for a group: their count over
   the windows' time. *)
let capacity acc =
  let windows = List.sort_uniq compare (List.map fst acc.completions) in
  let g = 20 in
  let rates =
    List.concat_map
      (fun w ->
        let c =
          Array.of_list (List.filter_map (fun (w', t) -> if w' = w then Some t else None) acc.completions)
        in
        Array.sort compare c;
        List.init ((Array.length c - 1) / g) (fun i ->
            Pstats.ratio (float_of_int g) (c.((i + 1) * g) -. c.(i * g))))
      windows
  in
  if rates <> [] then Pstats.median rates
  else
    Pstats.ratio
      (float_of_int (List.length acc.completions))
      (Pstats.sum (List.map (fun (w0, w1) -> w1 -. w0) windows))

(* ---------------- spans ------------------------------------------- *)

type span = {
  qid : int;
  layer : string;
  t0 : float;
  t1 : float;
  parent : int;  (** index of the parent span, -1 for a query root *)
}

let spans : span list ref = ref []
let n_spans = ref 0

let add_span ~qid ~layer ~t0 ~t1 ~parent =
  spans := { qid; layer; t0; t1 = Float.max t0 t1; parent } :: !spans;
  incr n_spans;
  !n_spans - 1

(* ---------------- one query --------------------------------------- *)

(* How a query ended, as the harness saw it. *)
type ending =
  | Refused of string  (** admission said no (typed) *)
  | Raised of exn
  | Done of Pe.outcome

(* [query acc ~qid ~reference ~started ~submit ~ending ~sample
   ~window] — tally one attempted query.  [started] is when it was due
   (open loop) or called (sequential); [submit] the submit call's
   start and end when it went through the scheduler; [sample] whether
   its latency is an end-to-end sample; [window] the timed window a
   completion must fall in to count towards capacity. *)
let query acc ~qid ~reference ~started ?submit ~ending ~sample ?window () =
  acc.attempted <- acc.attempted + 1;
  match ending with
  | Refused _ ->
      acc.failed <- acc.failed + 1;
      acc.rejected <- acc.rejected + 1
  | Raised _ ->
      acc.failed <- acc.failed + 1;
      acc.raised <- acc.raised + 1
  | Done o ->
      let run = Layers.claim o in
      let rep = o.Pe.report in
      List.iter
        (fun (b : Pax_obs.Audit.bound) ->
          let r = Pstats.ratio b.b_actual b.b_limit in
          match b.b_name with
          | "comm" -> acc.comm_max <- Float.max acc.comm_max r
          | "comp" -> acc.comp_max <- Float.max acc.comp_max r
          | _ -> ())
        o.Pe.audit.Pax_obs.Audit.bounds;
      let right = o.Pe.answer_keys = reference in
      if not right then acc.mismatched <- acc.mismatched + 1;
      if not o.Pe.audit.Pax_obs.Audit.pass then
        acc.audit_failed <- acc.audit_failed + 1;
      if not (right && o.Pe.audit.Pax_obs.Audit.pass) then
        acc.failed <- acc.failed + 1
      else begin
        acc.ok <- acc.ok + 1;
        let finish =
          match run with Some r -> r.Layers.run_t1 | None -> Layers.now ()
        in
        let lat = 1000. *. (finish -. started) in
        let traced = Atomic.get Layers.tracing in
        if sample then
          if traced then acc.lat_traced_ms <- lat :: acc.lat_traced_ms
          else acc.lat_ms <- lat :: acc.lat_ms;
        (match window with
        | Some (w0, w1) when finish >= w0 && finish <= w1 ->
            acc.completions <- ((w0, w1), finish) :: acc.completions
        | _ -> ());
        acc.bytes <-
          acc.bytes
          +. float_of_int
               (match rep.Cluster.measured_bytes with
               | Some b -> b
               | None -> rep.Cluster.control_bytes + rep.Cluster.answer_bytes);
        acc.visits <- acc.visits +. float_of_int (Array.fold_left ( + ) 0 rep.Cluster.visits);
        match run with
        | Some r when traced ->
            acc.traced <- acc.traced + 1;
            let root = add_span ~qid ~layer:"query" ~t0:started ~t1:finish ~parent:(-1) in
            (match submit with
            | Some (s0, s1) ->
                acc.submit_us <- (1e6 *. (s1 -. s0)) :: acc.submit_us;
                acc.wait_ms <- (1000. *. (r.Layers.entry -. s0)) :: acc.wait_ms;
                ignore (add_span ~qid ~layer:"sched" ~t0:s0 ~t1:r.Layers.entry ~parent:root)
            | None -> ());
            ignore
              (add_span ~qid ~layer:"engine.parse" ~t0:r.Layers.entry
                 ~t1:(r.Layers.entry +. r.Layers.parse_s) ~parent:root);
            let run_s = r.Layers.run_t1 -. r.Layers.run_t0 in
            let eng =
              add_span ~qid ~layer:"engine.run" ~t0:r.Layers.run_t0 ~t1:r.Layers.run_t1
                ~parent:root
            in
            let rounds_s =
              List.fold_left
                (fun s (rd : Layers.round) ->
                  let d = rd.rd_t1 -. rd.rd_t0 in
                  acc.round_ms <- (1000. *. d) :: acc.round_ms;
                  ignore
                    (add_span ~qid ~layer:"transport.round" ~t0:rd.rd_t0 ~t1:rd.rd_t1
                       ~parent:eng);
                  s +. d)
                0. r.Layers.rounds
            in
            List.iter
              (fun (lk : Layers.lookup) ->
                acc.lookups <- acc.lookups + 1;
                if lk.lk_hit then acc.hits <- acc.hits + 1;
                acc.lookup_us <- (1e6 *. (lk.lk_t1 -. lk.lk_t0)) :: acc.lookup_us;
                ignore
                  (add_span ~qid ~layer:"cache.lookup" ~t0:lk.lk_t0 ~t1:lk.lk_t1
                     ~parent:eng))
              r.Layers.lookups;
            let coord = rep.Cluster.coord_seconds in
            let site = rep.Cluster.total_seconds -. coord in
            acc.run_ms <- (1000. *. run_s) :: acc.run_ms;
            acc.self_ms <- (1000. *. (run_s -. rounds_s -. coord)) :: acc.self_ms;
            acc.rounds <- acc.rounds + List.length rep.Cluster.rounds;
            acc.coord_ms <- (1000. *. coord) :: acc.coord_ms;
            acc.parallel_ms <- (1000. *. rep.Cluster.parallel_seconds) :: acc.parallel_ms;
            acc.site_ms <- (1000. *. site) :: acc.site_ms;
            acc.ops <- acc.ops + rep.Cluster.total_ops;
            acc.retries <- acc.retries + rep.Cluster.retries;
            acc.site_s <- acc.site_s +. site;
            acc.run_less_coord_s <- acc.run_less_coord_s +. (run_s -. coord);
            acc.round_s <- acc.round_s +. rounds_s;
            acc.run_s <- acc.run_s +. run_s;
            acc.frames <- acc.frames + r.Layers.frames;
            acc.frame_bytes <- acc.frame_bytes + r.Layers.bytes;
            if o.Pe.engine = "reach" then acc.reach_ms <- (1000. *. run_s) :: acc.reach_ms
        | _ -> ()
      end

(* ---------------- span output ------------------------------------- *)

(* Self time of a layer: its spans' durations minus the part their
   direct children cover (children of one span never overlap: a run's
   rounds and lookups are sequential). *)
let layer_self () =
  let arr = Array.of_list (List.rev !spans) in
  let child = Array.make (Array.length arr) 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0))
    arr;
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      let n, tot, self =
        Option.value (Hashtbl.find_opt tbl s.layer) ~default:(0, 0., 0.)
      in
      let d = s.t1 -. s.t0 in
      Hashtbl.replace tbl s.layer (n + 1, tot +. d, self +. Float.max 0. (d -. child.(i))))
    arr;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The harness's spans as one Perfetto process: a lane per query id
   modulo 32 (at most 16 queries are ever outstanding, so lanes never
   hold two overlapping queries), parents linked. *)
let harness_process ~workload : Pax_obs.Chrome.process =
  let arr = Array.of_list (List.rev !spans) in
  let ids = Array.map (fun _ -> Pax_obs.Span.alloc ()) arr in
  let pr_spans =
    Array.to_list
      (Array.mapi
         (fun i s ->
           {
             Pax_obs.Span.sp_name = s.layer;
             sp_cat = List.hd (String.split_on_char '.' s.layer);
             sp_track = Printf.sprintf "lane %02d" (s.qid mod 32);
             sp_begin = s.t0;
             sp_dur = s.t1 -. s.t0;
             sp_args = [ ("workload", workload); ("query", string_of_int s.qid) ];
             sp_seq = i;
             sp_id = ids.(i);
             sp_parent = (if s.parent >= 0 then Some ids.(s.parent) else None);
           })
         arr)
  in
  { Pax_obs.Chrome.pr_name = "perfbench harness"; pr_offset = 0.; pr_spans }
