(* The traced run's artifacts, written once at the end: a Perfetto file
   (the harness's spans plus any site servers' drained span rings,
   clock-aligned) and a per-layer table of span counts, total and self
   time. *)

let write ~workload ~seed (sites : Pax_obs.Chrome.process list) =
  Sites.ensure_out_dir ();
  let base = Printf.sprintf "%s/%s-seed%d" Sites.out_dir workload seed in
  Pax_obs.Chrome.write_file_processes (base ^ ".trace.json")
    (Acc.harness_process ~workload :: sites);
  let rows =
    List.map
      (fun (layer, (n, total, self)) ->
        Report.obj
          [
            ("layer", Report.str layer);
            ("spans", string_of_int n);
            ("total_ms", Report.num (1000. *. total));
            ("self_ms", Report.num (1000. *. self));
          ])
      (Acc.layer_self ())
  in
  let oc = open_out (base ^ ".layers.json") in
  output_string oc
    (Report.obj
       [
         ("workload", Report.str workload);
         ("seed", string_of_int seed);
         ("layers", "[" ^ String.concat ", " rows ^ "]");
       ]);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "perfbench: wrote %s.trace.json and %s.layers.json\n%!" base base
