(* Forked site servers on Unix sockets under the run directory, and
   their teardown.  Socket paths are relative to the working directory
   (the checkout root), which keeps them short and inside it. *)

module Tree = Pax_xml.Tree
module Server = Pax_net.Server
module Client = Pax_net.Client
module Sockio = Pax_net.Sockio

let out_dir = ".perfbench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

type t = { pids : int array; paths : string array; mux : Client.t }

let live : int list ref = ref []
let generation = ref 0

(* Reap [pid]: give it [grace] seconds to exit on its own, then kill. *)
let reap ?(grace = 3.) pid =
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

(* Whatever happens to the harness, its servers die with it.  Forked
   servers inherit these handlers, so they act only in the harness. *)
let harness_pid = Unix.getpid ()

let () =
  at_exit (fun () ->
      if Unix.getpid () = harness_pid then List.iter (reap ~grace:0.) !live);
  let quit _ = if Unix.getpid () = harness_pid then exit 3 else Unix._exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit)

(* One server per element of [frags], each holding those fragments,
   then one round trip to every site so the mux is connected. *)
let spawn ~(frags : (int * Tree.node) list array) =
  ensure_out_dir ();
  incr generation;
  let paths =
    Array.mapi
      (fun i _ ->
        Printf.sprintf "%s/p%d-g%d-s%d.sock" out_dir (Unix.getpid ()) !generation i)
      frags
  in
  let pids =
    Array.mapi
      (fun i fr ->
        let pid =
          Server.spawn ~addr:(Sockio.Unix_path paths.(i))
            ~frags:fr ()
        in
        live := pid :: !live;
        pid)
      frags
  in
  let mux =
    Client.create ~timeout:30.
      ~addrs:(Array.map (fun p -> Sockio.Unix_path p) paths)
      ()
  in
  Array.iteri (fun i _ -> ignore (Client.fetch_stats mux i)) frags;
  { pids; paths; mux }

let stop t =
  (try Client.shutdown_sites t.mux with _ -> ());
  Array.iter (fun pid -> reap pid) t.pids;
  Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) t.paths

(* Peak resident set (VmHWM) of a process, in MB; 0 if unreadable. *)
let peak_rss_mb pid =
  let file = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in file with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      let v = scan () in
      close_in ic;
      v

(* The machine's cumulative steal and total CPU time, in ticks, from
   the first line of /proc/stat; None where unreadable.  Steal is time
   the hypervisor gave this machine's CPUs to other guests. *)
let host_cpu () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match String.split_on_char ' ' line with
      | "cpu" :: rest -> (
          match List.filter_map int_of_string_opt rest with
          | (_ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _) as ticks ->
              Some (steal, List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) ticks))
          | _ -> None)
      | _ -> None)

(* Sum of a counter family over every site: all its series, or with
   [dir] only the series labelled with that direction. *)
let counter_sum ?dir t name =
  let want = match dir with Some d -> Some (Printf.sprintf "%s{dir=%S}" name d) | None -> None in
  let n = Client.n_sites t.mux in
  let total = ref 0. in
  for site = 0 to n - 1 do
    List.iter
      (fun (series, v) ->
        let base =
          match String.index_opt series '{' with
          | Some i -> String.sub series 0 i
          | None -> series
        in
        let hit = match want with Some w -> series = w | None -> base = name in
        if hit then total := !total +. v)
      (Client.fetch_stats t.mux site)
  done;
  !total
