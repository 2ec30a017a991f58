(* The repository benchmark (see README.md here and BENCHMARK.json):

     pbench --workload NAME --seed N --seconds S --trace 0|1
            [--tiny] [--commit ID]

   runs one workload and prints, last on stdout, one JSON object:
   {"correct", "attempted", "failed", "metrics"} with the end-to-end
   metrics (--trace 0) or the per-layer metrics of a traced run
   (--trace 1).  The lines before it record the environment and the
   failure breakdown.  --tiny shrinks the data for the smoke test. *)

(* Host steal share above which a run is flagged. *)
let max_steal = 0.02

let usage () =
  prerr_endline
    "usage: pbench --workload serve-hot|local-large --seed N \
     --seconds S --trace 0|1 [--tiny] [--commit ID]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let tiny = ref false and commit = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Option.value (int_of_string_opt v) ~default:(-1); parse rest
    | "--seconds" :: v :: rest -> seconds := Option.value (float_of_string_opt v) ~default:0.; parse rest
    | "--trace" :: v :: rest -> trace := Option.value (int_of_string_opt v) ~default:(-1); parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | [] -> ()
    | arg :: _ -> prerr_endline ("pbench: unknown argument " ^ arg); usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and tiny = !tiny in
  let cpu0 = Sites.host_cpu () in
  let run =
    match !workload with
    | "serve-hot" -> Serve.run ~seed ~seconds ~trace ~tiny
    | "local-large" -> Local.run Local.local_large ~seed ~seconds ~trace ~tiny
    | w -> prerr_endline ("pbench: unknown workload " ^ w); usage ()
  in
  let inp = run.Report.input in
  let acc = inp.Report.acc in
  let cores = Domain.recommended_domain_count () in
  (* Host steal over the run: on a shared machine it, more than the
     program, sets the latency tail. *)
  let steal =
    match (cpu0, Sites.host_cpu ()) with
    | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
        Some (float_of_int (s1 - s0) /. float_of_int (t1 - t0))
    | _ -> None
  in
  Option.iter
    (fun st ->
      if st > max_steal then
        Printf.eprintf
          "perfbench: the host stole %.1f%% of CPU time during the run: its latency and capacity \
           figures describe the host as much as the program\n%!"
          (100. *. st))
    steal;
  let n_lat = List.length acc.Acc.lat_ms in
  let thin_tail = (not trace) && Pstats.beyond_p99 n_lat < Pstats.min_beyond_p99 in
  if thin_tail then
    Printf.eprintf "perfbench: only %d latency samples lie beyond p99 (want %d)\n%!"
      (Pstats.beyond_p99 n_lat) Pstats.min_beyond_p99;
  print_endline
    ("perfbench-env "
    ^ Report.obj
        ([
           ("workload", Report.str !workload);
           ("seed", string_of_int seed);
           ("seconds", Report.num seconds);
           ("trace", string_of_bool trace);
           ("tiny", string_of_bool tiny);
           ("nproc", string_of_int cores);
           ("ocaml", Report.str Sys.ocaml_version);
           ("commit", Report.str !commit);
           ("host_steal_share", match steal with Some st -> Report.num st | None -> "null");
           ("host_steal_high", string_of_bool (match steal with Some st -> st > max_steal | None -> false));
           ( "setups_s",
             "["
             ^ String.concat ", "
                 (List.rev_map (fun (t, _, _, _) -> Report.num t) inp.Report.setups)
             ^ "]" );
           ("latency_samples", string_of_int n_lat);
           ("samples_beyond_p99", string_of_int (Pstats.beyond_p99 n_lat));
           ("p99_tail_thin", string_of_bool thin_tail);
         ]
        @ List.map (fun (k, v) -> (k, Report.str v)) run.Report.constants));
  print_endline
    ("perfbench-calib "
    ^ Report.obj
        ([
           ("compute_kernel_samples", string_of_int (List.length (Pstats.items Calib.compute_ms)));
           ("compute_kernel_mean_ms", Report.num (Calib.mean_of Calib.compute_ms));
           ("compute_kernel_reference_ms", Report.num Calib.reference_ms);
           ("echo_kernel_samples", string_of_int (List.length (Pstats.items Calib.echo_ms)));
           ("echo_kernel_mean_ms", Report.num (Calib.mean_of Calib.echo_ms));
           ("echo_kernel_reference_ms", Report.num Calib.echo_reference_ms);
           ("cpu_factor", Report.num (Calib.cpu_factor ()));
           ("typical_factor", Report.num (Calib.typical_factor ()));
           ("tail_factor", Report.num (Calib.tail_factor ()));
           ("p50_factor", Report.num inp.Report.factors.Report.f_p50);
           ("p99_factor", Report.num inp.Report.factors.Report.f_p99);
           ("capacity_factor", Report.num inp.Report.factors.Report.f_capacity);
           ("setup_factor", Report.num inp.Report.factors.Report.f_setup);
         ]
        @ List.map (fun (k, v) -> ("raw_" ^ k, Report.num v)) (Report.raw_times inp)));
  print_endline
    ("perfbench-ops "
    ^ Report.obj
        [
          ("attempted", string_of_int acc.Acc.attempted);
          ("failed", string_of_int acc.Acc.failed);
          ( "error_frac",
            Report.num
              (Pstats.ratio (float_of_int acc.Acc.failed) (float_of_int acc.Acc.attempted)) );
          ("refused", string_of_int acc.Acc.rejected);
          ("raised", string_of_int acc.Acc.raised);
          ("wrong_answer", string_of_int acc.Acc.mismatched);
          ("audit_failed", string_of_int acc.Acc.audit_failed);
          ("moves", string_of_int acc.Acc.moves);
        ]);
  if trace then
    print_endline
      ("perfbench-unavailable "
      ^ Report.obj (List.map (fun (k, why) -> (k, Report.str why)) inp.Report.unavailable));
  List.iter
    (fun (what, ok) -> if not ok then Printf.eprintf "perfbench: check failed: %s\n%!" what)
    run.Report.checks;
  let metrics =
    if trace then Report.per_layer inp ~cores else Report.end_to_end inp
  in
  print_endline
    (Report.result_line
       ~correct:(List.for_all snd run.Report.checks)
       ~attempted:acc.Acc.attempted ~failed:acc.Acc.failed metrics)
