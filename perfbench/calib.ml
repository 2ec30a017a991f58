(* Host-speed calibration.  The benchmark runs on a few cores of a
   shared host whose speed changes from minute to minute: the
   hypervisor steals CPU time for other guests, and neighbours on the
   same physical cores slow every instruction.  Fixed kernels that share
   none of the program's code or data are timed again and again through
   each run, and the run's timings are scaled by

     factor = reference_ms / (mean time of a kernel in this run)

   so they read as on a host where the kernel takes [reference_ms]:
   a host twice as slow doubles both the program's times and the
   kernel's, and the scaled figures stay put.  The mean, not the
   median: time stolen from a kernel counts in proportion, as it does
   in the program's times.  The raw figures are printed too.

   The kernels allocate nothing (so they never run the collector) and
   work in a 32 KiB table, so they measure the cores, not the program's
   heap or caches.  They are timed only while the program is idle —
   between two queries of a sequential or closed loop — so the
   program's own load never slows them. *)

(* The kernels' steal-free times on the 2-core VM the benchmark was
   written on. *)
let reference_ms = 0.97
let echo_reference_ms = 1.2

let table = Array.init 4096 (fun i -> (i * 2654435761) land 0xffff)

let compute n =
  let x = ref 0x9e3779b9 and s = ref 0 in
  for _ = 1 to n do
    x := !x lxor ((!x lsl 13) land 0x3fffffffffff);
    x := !x lxor (!x lsr 7);
    x := !x lxor ((!x lsl 17) land 0x3fffffffffff);
    s := !s + Array.unsafe_get table (!x land 4095)
  done;
  !s

(* The compute kernel: about 1 ms. *)
let iterations = 160_000

(* The served workload's kernel: [hops] round trips over a Unix socket
   with a forked echo process, each side computing [hop_iterations]
   before it passes the byte on.  A served query hops between the
   harness and the site servers the same way, and a host that steals
   CPU time delays each hop until a core is handed back, which a
   compute kernel alone does not see. *)
let hops = 8
let hop_iterations = 8_000

type echo = { pid : int; fd : Unix.file_descr }

let start_echo () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      Unix.close a;
      let buf = Bytes.create 1 in
      (try
         while Unix.read b buf 0 1 = 1 do
           ignore (Sys.opaque_identity (compute hop_iterations));
           ignore (Unix.write b buf 0 1)
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close b;
      Sites.live := pid :: !Sites.live;
      { pid; fd = a }

(* Closing the socket ends the echo process. *)
let stop_echo e =
  Unix.close e.fd;
  Sites.reap e.pid

(* Kernel times, per kernel. *)
let compute_ms = Pstats.buf ()
let echo_ms = Pstats.buf ()

(* Time one kernel — the echo kernel when [echo] is given. *)
let sample ?echo () =
  let buf = Bytes.create 1 in
  let t0 = Layers.now () in
  (match echo with
  | None -> ignore (Sys.opaque_identity (compute iterations))
  | Some e ->
      for _ = 1 to hops do
        ignore (Sys.opaque_identity (compute hop_iterations));
        ignore (Unix.write e.fd buf 0 1);
        ignore (Unix.read e.fd buf 0 1)
      done);
  let ms = 1000. *. (Layers.now () -. t0) in
  Pstats.add (if echo = None then compute_ms else echo_ms) ms

let mean_of b = Pstats.mean (Pstats.items b)

let scale reference b =
  let m = mean_of b in
  if m > 0. then reference /. m else 1.

(* The factor for CPU-bound timings: capacity, and on the in-process
   workload everything. *)
let cpu_factor () = scale reference_ms compute_ms

(* The factor for in-process query times: the compute kernel's,
   squared.  Also empirical: over three passes of ten local-large runs
   at 0.5% to 20% steal, query times grew as the square of the compute
   kernel's slowdown (see perfbench/README.md, "Calibration"). *)
let in_process_factor () = cpu_factor () ** 2.

(* The factor for the tail (p99) served query: the echo kernel's. *)
let tail_factor () =
  if Pstats.items echo_ms = [] then cpu_factor () else scale echo_reference_ms echo_ms

(* The factor for the typical served query — the p50, and the set-up,
   whose time is mostly its warm-up's served queries: the geometric
   mean of the two.  A served query computes and waits on hops.  The
   tail query waits the way the echo kernel does, but the typical one
   waits less: the echo kernel alone over-corrects it on a host that
   steals time, and the compute kernel alone under-corrects it.  An
   empirical choice; perfbench/README.md ("Calibration") gives the
   runs. *)
let typical_factor () = sqrt (cpu_factor () *. tail_factor ())
