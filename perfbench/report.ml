(* From a workload's tallies to the named metrics BENCHMARK.json lists,
   and the one-line JSON result.  A per-layer metric a workload has no
   such layer for reads 0 and is listed in [unavailable] with why. *)

type server = {
  visit_frames : float;
  kernel_ms_mean : float;
  visit_ms_mean : float;
  stale_epoch : float;
  spans_dropped : float;
}

(* What each timed end-to-end metric is multiplied by (Calib), and
   capacity divided by: below 1 when the host ran slower than the
   reference. *)
type factors = { f_p50 : float; f_p99 : float; f_capacity : float; f_setup : float }

type input = {
  acc : Acc.t;
  setups : (float * float * float * float) list;
      (** per set-up: total, generate, spawn, warm seconds *)
  capacity_qps : float;
  rss_mb : float;
  factors : factors;
  server : server option;
  unavailable : (string * string) list;  (** layer prefix, reason *)
}

(* Latency percentiles are the median of the percentile over this many
   consecutive stretches of the run's samples (Pstats.by_window): 4 to
   5 s each.  Bursts of slow queries (host steal, a stalled server)
   come a few to a run; with fewer stretches, how many of them a run
   happened to catch set its p99. *)
let latency_windows = 9

let setup_part inp f = Pstats.median (List.map f inp.setups)

(* The timed metrics as measured, before calibration. *)
let raw_times inp =
  let a = inp.acc in
  [
    ("latency_p50_ms", Pstats.by_window latency_windows Pstats.p50_smooth a.Acc.lat_ms);
    ("latency_p99_ms", Pstats.by_window latency_windows Pstats.p99_smooth a.Acc.lat_ms);
    ("capacity_qps", inp.capacity_qps);
    ("setup_s", setup_part inp (fun (t, _, _, _) -> t));
  ]

let end_to_end inp =
  let a = inp.acc in
  let per_ok x = Pstats.ratio x (float_of_int a.Acc.ok) in
  let f = inp.factors in
  let raw name = List.assoc name (raw_times inp) in
  [
    ("latency_p50_ms", "ms", f.f_p50 *. raw "latency_p50_ms");
    ("latency_p99_ms", "ms", f.f_p99 *. raw "latency_p99_ms");
    ("capacity_qps", "1/s", raw "capacity_qps" /. f.f_capacity);
    ( "ok_frac",
      "ratio",
      Pstats.ratio (float_of_int (a.Acc.attempted - a.Acc.failed)) (float_of_int a.Acc.attempted) );
    ("bytes_per_query", "B", per_ok a.Acc.bytes);
    ("visits_per_query", "count", per_ok a.Acc.visits);
    ("comm_ratio_max", "ratio", a.Acc.comm_max);
    ("comp_ratio_max", "ratio", a.Acc.comp_max);
    ("peak_rss_mb", "MB", inp.rss_mb);
    ("setup_s", "s", f.f_setup *. raw "setup_s");
  ]

let layer_values inp ~cores =
  let a = inp.acc in
  let p xs q = Pstats.percentile xs q in
  let traced = float_of_int a.Acc.traced in
  let per_q n = Pstats.ratio (float_of_int n) traced in
  let srv f = match inp.server with Some s -> f s | None -> 0. in
  [
    ("sched.submit_us.p50", "us", p a.Acc.submit_us 50.);
    ("sched.wait_ms.p50", "ms", p a.Acc.wait_ms 50.);
    ("sched.wait_ms.p99", "ms", p a.Acc.wait_ms 99.);
    ("sched.rejected", "count", float_of_int a.Acc.rejected);
    ("engine.parse_us.p50", "us", p (Pstats.items Layers.parse_us) 50.);
    ("engine.run_ms.p50", "ms", p a.Acc.run_ms 50.);
    ("engine.run_ms.p99", "ms", p a.Acc.run_ms 99.);
    ("engine.self_ms.p50", "ms", p a.Acc.self_ms 50.);
    ("cluster.rounds_per_query", "count", per_q a.Acc.rounds);
    ("cluster.coord_ms.p50", "ms", p a.Acc.coord_ms 50.);
    ("cluster.parallel_ms.p50", "ms", p a.Acc.parallel_ms 50.);
    ("cluster.site_ms.p50", "ms", p a.Acc.site_ms 50.);
    ("cluster.ops_per_query", "count", per_q a.Acc.ops);
    ("cluster.retries", "count", float_of_int a.Acc.retries);
    ("pool.speedup", "ratio", Pstats.ratio a.Acc.site_s a.Acc.run_less_coord_s);
    ("transport.round_ms.p50", "ms", p a.Acc.round_ms 50.);
    ("transport.round_ms.p99", "ms", p a.Acc.round_ms 99.);
    ("transport.blocked_share", "ratio", Pstats.ratio a.Acc.round_s a.Acc.run_s);
    ("transport.frames_per_query", "count", per_q a.Acc.frames);
    ( "transport.bytes_per_frame",
      "B",
      Pstats.ratio (float_of_int a.Acc.frame_bytes) (float_of_int a.Acc.frames) );
    ("cache.hit_ratio", "ratio", Pstats.ratio (float_of_int a.Acc.hits) (float_of_int a.Acc.lookups));
    ("cache.lookups_per_query", "count", per_q a.Acc.lookups);
    ("cache.lookup_us.p50", "us", p a.Acc.lookup_us 50.);
    ("server.visit_frames", "count", srv (fun s -> s.visit_frames));
    ("server.kernel_ms.mean", "ms", srv (fun s -> s.kernel_ms_mean));
    ("server.visit_ms.mean", "ms", srv (fun s -> s.visit_ms_mean));
    ("server.stale_epoch", "count", srv (fun s -> s.stale_epoch));
    ("server.spans_dropped", "count", srv (fun s -> s.spans_dropped));
    ("shard.move_ms.p50", "ms", p a.Acc.move_ms 50.);
    ("shard.moves", "count", float_of_int a.Acc.moves);
    ("reach.run_ms.p50", "ms", p a.Acc.reach_ms 50.);
    ("setup.generate_s", "s", setup_part inp (fun (_, g, _, _) -> g));
    ("setup.spawn_s", "s", setup_part inp (fun (_, _, s, _) -> s));
    ("setup.warm_s", "s", setup_part inp (fun (_, _, _, w) -> w));
    ( "harness.trace_overhead",
      "ratio",
      Pstats.ratio (Pstats.median a.Acc.lat_traced_ms) (Pstats.median a.Acc.lat_ms) );
    ("harness.cores", "count", float_of_int cores);
  ]

let per_layer inp ~cores =
  let unavailable name =
    List.exists
      (fun (prefix, _) ->
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix)
      inp.unavailable
  in
  List.map (fun (n, u, v) -> (n, u, if unavailable n then 0. else v)) (layer_values inp ~cores)

(* ---------------- JSON -------------------------------------------- *)

(* Numbers keep all their digits: integers print as integers, other
   values with 17 significant digits. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "0"

let str s = Pax_obs.Json.to_string (Pax_obs.Json.Str s)

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  obj
    [
      ("correct", if correct then "true" else "false");
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        obj (List.map (fun (n, u, v) -> (n, obj [ ("value", num v); ("unit", str u) ])) metrics)
      );
    ]

(* What a workload run hands back: its tallies, the correctness checks
   it made (all must hold for [correct]) and its constants. *)
type run = {
  input : input;
  checks : (string * bool) list;
  constants : (string * string) list;
}
