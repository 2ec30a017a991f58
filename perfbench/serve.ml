(* The served workload, serve-hot: FT2 on forked site servers behind
   one socket-backed Coordinator with the shared stage cache on, a
   placement table and moves between queries, driven by one submitting
   thread (the caller) and one collecting thread.  A run is a series of
   cycles, each a closed-loop stretch with one query outstanding at a
   time (latency samples) and then a saturation stretch that keeps a
   fixed number of queries outstanding (capacity).  The latency stretch
   is a closed loop, not an open one at a fixed rate: on a small shared
   machine whose host steals CPU time, an open loop turns each stall
   into queueing behind it, and the tail then swings from run to run
   (per-4 s p99s of one run ranged over 24 to 109 ms at 40 q/s). *)

module Fragment = Pax_frag.Fragment
module Coordinator = Pax_serve.Coordinator
module Cache = Pax_serve.Cache
module Ptable = Pax_shard.Ptable
module Migrate = Pax_shard.Migrate
module Engines = Pax_core.Engines
module Pe = Pax_engine.Pe
module Client = Pax_net.Client

let units = 13  (* FT2 size, in units of Xmark.nodes_per_mb nodes: 23k nodes *)
let n_sites = 4
let inflight = 16  (* outstanding queries in the saturation phase *)
let workers = 8  (* coordinator worker threads *)
let max_queue = 64
let move_every = 50  (* queries per move *)
let cycle_s = 5.  (* one closed-loop stretch and one saturation stretch *)

type world = {
  ft : Fragment.t;
  table : Ptable.t;
  sites : Sites.t;
  coord : Coordinator.t;
}

let now = Layers.now

(* One set-up: generate, fragment and place FT2, fork and connect the
   servers, mount the engines, and run every base (engine, query) once.
   Returns the world and its (generate, spawn, warm) seconds. *)
let build ~units =
  Layers.reset ();
  let t0 = now () in
  let ft = Gen.ft2 ~seed:Gen.data_seed ~units in
  let n_frags = Fragment.n_fragments ft in
  let table = Ptable.create ~n_frags ~n_sites ~assign:(fun fid -> fid mod n_sites) () in
  let assign = Ptable.assign table in
  let t1 = now () in
  let frags =
    Array.init n_sites (fun s ->
        List.filter_map
          (fun fid ->
            if assign fid = s then Some (fid, (Fragment.fragment ft fid).Fragment.root)
            else None)
          (List.init n_frags Fun.id))
  in
  (* Fork the servers from a compacted heap: otherwise each inherits the
     garbage of earlier set-ups, and its collector then walks, and
     copies on write, pages no server needs. *)
  Gc.compact ();
  let sites = Sites.spawn ~frags in
  let t2 = now () in
  let mounts =
    List.map
      (fun e ->
        let ctor = Option.get (Engines.of_name e) in
        Coordinator.mount ~tune:Layers.tune ~table (Layers.wrap (ctor ft ~n_sites ~assign)))
      Gen.engines
  in
  let coord =
    Coordinator.create ~max_inflight:workers ~max_queue ~cache:(Cache.create ft)
      (Coordinator.Sockets sites.Sites.mux) mounts
  in
  List.iter
    (fun engine ->
      List.iter
        (fun text ->
          match Coordinator.run ~engine coord text with
          | Ok o -> ignore (Layers.claim o)
          | Error e -> failwith ("warm-up refused: " ^ Coordinator.error_message e))
        Gen.base_queries)
    Gen.engines;
  let t3 = now () in
  ({ ft; table; sites; coord }, (t1 -. t0, t2 -. t1, t3 -. t2))

let teardown w =
  Coordinator.close w.coord;
  Sites.stop w.sites

(* Reference answers: a sequential in-process run of every distinct
   (engine, query) the run can issue. *)
let references w ops =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (op : Gen.op) ->
      let ctor = Option.get (Engines.of_name op.engine) in
      let o =
        Pe.run_text (ctor w.ft ~n_sites ~assign:(fun fid -> fid mod n_sites)) ~domains:1
          op.text
      in
      Hashtbl.replace tbl op o.Pe.answer_keys)
    (Gen.distinct ops);
  tbl

(* ---------------- the two-thread load generator ------------------- *)

type item = {
  qid : int;
  op : Gen.op;
  s0 : float;
  s1 : float;
  res : (Pe.outcome Pax_serve.Sched.ticket, Coordinator.error) result;
  sample : bool;  (** a latency sample *)
  window : (float * float) option;
}

(* One query outstanding at a time (latency), or [inflight] queries
   kept outstanding (capacity). *)
type mode = Closed | Saturate

(* Peak resident memory of the harness and the servers. *)
let peak_rss w =
  Array.fold_left (fun s pid -> s +. Sites.peak_rss_mb pid) (Sites.peak_rss_mb 0) w.sites.Sites.pids

(* The peak when the run had attempted [rss_queries] operations: it
   grows with the queries served, so taken at the end it would follow
   how fast the host let the run go. *)
let rss_queries = 2000
let rss_at : float option ref = ref None

(* A migration: fragments take turns in a fixed rotation, each moving
   to the next site over.  A refused move counts as a failed operation.
   The submitter runs it while no query is outstanding (see [phase]). *)
let move w acc =
  let table = w.table in
  let fid = ((7 * acc.Acc.moves) + 3) mod Ptable.n_frags table in
  let dst = (Ptable.site_of table fid + 1) mod n_sites in
  let t0 = now () in
  let r = Migrate.move ~mux:w.sites.Sites.mux ~ft:w.ft ~table ~fid ~dst () in
  let t1 = now () in
  acc.Acc.attempted <- acc.Acc.attempted + 1;
  acc.Acc.moves <- acc.Acc.moves + 1;
  (match r with
  | Ok _ -> ()
  | Error msg ->
      prerr_endline ("perfbench: move refused: " ^ msg);
      acc.Acc.failed <- acc.Acc.failed + 1);
  if Atomic.get Layers.tracing then acc.Acc.move_ms <- (1000. *. (t1 -. t0)) :: acc.Acc.move_ms

(* Run one phase for [duration] seconds, starting at query [next.(0)]
   of [ops] (advanced in place).  Queries submitted in its first
   [settle] seconds are not latency samples. *)
let phase w acc refs ~echo ~ops ~next ~mode ~duration ~settle =
  let q = Queue.create () in
  let m = Mutex.create () and c = Condition.create () in
  let outstanding = ref 0 and closed = ref false in
  let pop () =
    Mutex.lock m;
    while Queue.is_empty q && not !closed do
      Condition.wait c m
    done;
    let it = if Queue.is_empty q then None else Some (Queue.pop q) in
    Mutex.unlock m;
    it
  in
  let collector () =
    let rec loop () =
      match pop () with
      | None -> ()
      | Some it ->
          let ending =
            match it.res with
            | Error e -> Acc.Refused (Coordinator.error_message e)
            | Ok tk -> (
                match Coordinator.await tk with
                | Ok o -> Acc.Done o
                | Error ex -> Acc.Raised ex)
          in
          (match ending with
          | Acc.Raised ex -> prerr_endline ("perfbench: query raised " ^ Printexc.to_string ex)
          | Acc.Refused why -> prerr_endline ("perfbench: query refused: " ^ why)
          | Acc.Done _ -> ());
          Acc.query acc ~qid:it.qid ~reference:(Hashtbl.find refs it.op) ~started:it.s0
            ~submit:(it.s0, it.s1) ~ending
            ~sample:it.sample
            ?window:it.window ();
          if !rss_at = None && acc.Acc.attempted >= rss_queries then rss_at := Some (peak_rss w);
          (* Between two queries of the closed loop nothing of the
             program runs: time the calibration kernel there. *)
          if mode = Closed then
            if it.qid mod 2 = 0 then Calib.sample ~echo () else Calib.sample ();
          Mutex.lock m;
          decr outstanding;
          Condition.broadcast c;
          Mutex.unlock m;
          loop ()
    in
    loop ()
  in
  let th = Thread.create collector () in
  let t_start = now () in
  let deadline = t_start +. duration in
  let n_ops = Array.length ops in
  let limit = match mode with Closed -> 1 | Saturate -> inflight in
  let wait_below k =
    Mutex.lock m;
    while !outstanding >= k do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  (* Before every [move_every]-th query: wait until no query is
     outstanding, then move.  A run admitted between a move's epoch
     reservation and its commit routes by the old placement under the
     new epoch, and the source's fence then refuses it until its retry
     budget runs out (Site_unreachable); how many runs hit that window
     is down to thread timing, so moves are made between queries. *)
  let rec submit () =
    if next.(0) / move_every > acc.Acc.moves then begin
      wait_below 1;
      move w acc;
      submit ()
    end
    else begin
      wait_below limit;
      let s0 = now () in
      if s0 < deadline then begin
        let qid = next.(0) in
        next.(0) <- qid + 1;
        let op = ops.(qid mod n_ops) in
        let res = Coordinator.submit ~engine:op.Gen.engine w.coord op.Gen.text in
        let s1 = now () in
        let window = match mode with Saturate -> Some (t_start, deadline) | Closed -> None in
        let sample = mode = Closed && s0 >= t_start +. settle in
        Mutex.lock m;
        incr outstanding;
        Queue.push { qid; op; s0; s1; res; sample; window } q;
        Condition.broadcast c;
        Mutex.unlock m;
        submit ()
      end
    end
  in
  submit ();
  Mutex.lock m;
  closed := true;
  Condition.broadcast c;
  Mutex.unlock m;
  Thread.join th

(* ---------------- one run ----------------------------------------- *)

let setups_per_run = 9

(* Server-side figures for the traced window, and whether the
   transport decorator's frame and byte totals equal the servers'
   visit counters (both count from the last set-up's first query). *)
let harvest w ~dropped0 =
  let mux = w.sites.Sites.mux in
  let procs =
    List.init (Client.n_sites mux) (fun site ->
        let pr_offset, pr_spans = Client.fetch_spans mux site in
        { Pax_obs.Chrome.pr_name = Printf.sprintf "site %d" site; pr_offset; pr_spans })
  in
  let durs pick =
    List.concat_map
      (fun pr ->
        List.filter_map
          (fun (s : Pax_obs.Span.span) -> if pick s then Some (1000. *. s.sp_dur) else None)
          pr.Pax_obs.Chrome.pr_spans)
      procs
  in
  let visit what dir = Sites.counter_sum ~dir w.sites ("pax_net_visit_" ^ what ^ "_total") in
  let req_frames = visit "frames" "recv" and req_bytes = visit "bytes" "recv" in
  let rep_frames = visit "frames" "sent" and rep_bytes = visit "bytes" "sent" in
  let frames = req_frames +. rep_frames in
  let server =
    {
      Report.visit_frames = frames;
      kernel_ms_mean = Pstats.mean (durs (fun s -> s.sp_cat = "stage"));
      visit_ms_mean = Pstats.mean (durs (fun s -> s.sp_cat = "visit"));
      stale_epoch = Sites.counter_sum w.sites "pax_srv_stale_epoch_total";
      spans_dropped = Sites.counter_sum w.sites Pax_obs.Sink.dropped_total -. dropped0;
    }
  in
  let t_frames = float_of_int (Atomic.get Layers.frames_total) in
  let t_sent = float_of_int (Atomic.get Layers.sent_bytes_total) in
  let t_recv = float_of_int (Atomic.get Layers.recv_bytes_total) in
  let aborted = Atomic.get Layers.aborted_rounds in
  (* Request bytes must match exactly: every request the client wrote,
     a server read.  Reply totals match exactly when no round raised.  A
     round that raised stops reading replies, so then the servers may
     have sent more than the client read -- frames and bytes both, or
     neither -- and reply totals are checked only as a lower bound. *)
  let unread = frames -. t_frames in
  let closes =
    req_bytes = t_sent
    &&
    if aborted = 0 then unread = 0. && rep_bytes = t_recv
    else unread >= 0. && rep_bytes >= t_recv && (unread = 0.) = (rep_bytes = t_recv)
  in
  Printf.eprintf
    "perfbench: accounting: servers %.0f frames, %.0f request + %.0f reply bytes; transport \
     %.0f frames, %.0f request + %.0f reply bytes; %d rounds raised, %.0f replies unread%s\n%!"
    frames req_bytes rep_bytes t_frames t_sent t_recv aborted unread
    (if closes then "" else " -- DOES NOT CLOSE");
  (server, closes, procs)

let run ~seed ~seconds ~trace ~tiny : Report.run =
  let units = if tiny then 1 else units in
  (* Enough operations for the longest run; the sequence cycles. *)
  let n_ops = max 64 (int_of_float (seconds *. 150.)) in
  let ops = Gen.zipf_ops ~seed ~n:n_ops in
  (* Forked first, while the harness has a single thread. *)
  let echo = Calib.start_echo () in
  Fun.protect ~finally:(fun () -> Calib.stop_echo echo) @@ fun () ->
  let setups = ref [] and world = ref None in
  for _ = 1 to setups_per_run do
    Option.iter teardown !world;
    let t0 = now () in
    let w, (g, s, wm) = build ~units in
    setups := (now () -. t0, g, s, wm) :: !setups;
    world := Some w
  done;
  let w = Option.get !world in
  Fun.protect ~finally:(fun () -> teardown w) @@ fun () ->
  let refs = references w ops in
  (* Leave the garbage of earlier set-ups and references to a
     compaction now rather than to the timed phases. *)
  Gc.compact ();
  let acc = Acc.create () in
  let next = [| 0 |] in
  (* Queries submitted in the first 5% of the run (at most 2 s) run and
     are checked, but are not latency samples: the servers' and the
     harness's heaps settle first. *)
  let settle = Float.min 2. (0.05 *. seconds) in
  let run_phase ?(settle = 0.) mode duration =
    phase w acc refs ~echo ~ops ~next ~mode ~duration ~settle
  in
  let cycles = max 1 (int_of_float (Float.round (seconds /. cycle_s))) in
  let cycle = seconds /. float_of_int cycles in
  let closed_s, sat_s = if trace then (seconds, 0.) else (0.8 *. cycle, 0.2 *. cycle) in
  let traced, capacity_qps =
    if not trace then begin
      (* The closed loop and saturation take turns, so both see the
         whole run's host, and the calibration taken between the closed
         loop's queries describes the saturation stretches too. *)
      for i = 0 to cycles - 1 do
        run_phase ~settle:(if i = 0 then settle else 0.) Closed closed_s;
        run_phase Saturate sat_s
      done;
      (None, Acc.capacity acc)
    end
    else begin
      (* The traced run is a closed loop throughout, untraced then
         traced: per-layer figures describe the latency regime, and the
         two halves' p50 give the tracing overhead. *)
      run_phase ~settle Closed (closed_s /. 2.);
      let mux = w.sites.Sites.mux in
      for site = 0 to Client.n_sites mux - 1 do
        ignore (Client.fetch_spans mux site)
      done;
      let dropped0 = Sites.counter_sum w.sites Pax_obs.Sink.dropped_total in
      Atomic.set Layers.tracing true;
      run_phase Closed (closed_s /. 2.);
      Atomic.set Layers.tracing false;
      (Some dropped0, 0.)
    end
  in
  let rss_mb = match !rss_at with Some r -> r | None -> peak_rss w in
  let server, closes =
    match traced with
    | None -> (None, true)
    | Some dropped0 ->
        let server, closes, procs = harvest w ~dropped0 in
        Trace_out.write ~workload:"serve-hot" ~seed procs;
        (Some server, closes)
  in
  let unavailable =
    [
      ("reach.", "no reachability queries on this workload");
      ("pool.", "rounds run over sockets, not on the domain pool");
    ]
  in
  {
    Report.input =
      {
        Report.acc;
        setups = !setups;
        capacity_qps;
        rss_mb;
        factors =
          {
            Report.f_p50 = Calib.typical_factor ();
            f_p99 = Calib.tail_factor ();
            f_capacity = Calib.cpu_factor ();
            f_setup = Calib.typical_factor ();
          };
        server;
        unavailable;
      };
    checks =
      [ ("answers match the references", acc.Acc.mismatched = 0) ]
      @ if trace then [ ("transport frames and bytes equal the servers'", closes) ] else [];
    constants =
      [
        ("ft2_units", string_of_int units);
        ("nodes", string_of_int (Gen.node_count w.ft));
        ("fragments", string_of_int (Fragment.n_fragments w.ft));
        ("sites", string_of_int n_sites);
        ("saturation_inflight", string_of_int inflight);
        ("coordinator_workers", string_of_int workers);
        ("coordinator_max_queue", string_of_int max_queue);
        ("move_every_queries", string_of_int move_every);
        ("peak_rss_at_operations", string_of_int rss_queries);
        ("mix", "zipf(1) over Q1-Q4 + 301 Q3 variants x 3 engines");
        ("distinct_ops", string_of_int (Hashtbl.length refs));
        ("cycles", string_of_int (if trace then 1 else cycles));
        ("closed_loop_s_per_cycle", Printf.sprintf "%g" closed_s);
        ("saturation_s_per_cycle", Printf.sprintf "%g" sat_s);
      ];
  }
