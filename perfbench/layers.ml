(* Layer probes: wrappers the harness puts around the program's own
   seams, so each layer is timed from outside by calls into it.

   - [wrap] is a Pe.S around a mounted engine: it times [parse] and
     [run] and decorates the transport handed to [make_cluster].
   - The transport decorator times every [visit_round] and counts the
     frames and bytes it moved (from the transport's own stats).
   - [tune] installs a Stage_cache decorator that times lookups and
     counts hits; the coordinator runs it after installing its cache.

   Probe state is per engine run.  One run executes on one thread
   (parse, make_cluster, tune and run, in that order, on a coordinator
   worker or on the caller of Pe.run_text), so the run record lives in
   a slot keyed by the thread.  A finished run is filed under its
   outcome (physical identity) for the harness to [claim] when the
   outcome reaches it.

   Frame and byte totals are always counted (they close against the
   servers' counters); timings of rounds and lookups are recorded only
   while [tracing] is set.  The completion stamp [run_t1] is always
   taken: it is when the query's answer existed, which the harness's
   in-order collector may observe later. *)

module Pe = Pax_engine.Pe
module Cluster = Pax_dist.Cluster
module Transport = Pax_dist.Transport
module Stage_cache = Pax_dist.Stage_cache

let now = Pax_obs.Clock.now
let tracing = Atomic.make false

type round = { rd_t0 : float; rd_t1 : float }
type lookup = { lk_t0 : float; lk_t1 : float; lk_hit : bool }

type run = {
  entry : float;  (** start of the run's parse: engine entry *)
  mutable parse_s : float;
  mutable run_t0 : float;
  mutable run_t1 : float;
  mutable rounds : round list;
  mutable lookups : lookup list;
  mutable frames : int;
  mutable bytes : int;
}

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let slots : (int, run) Hashtbl.t = Hashtbl.create 16
let finished : (Pe.outcome * run) list ref = ref []

(* Parse times of every call while tracing: the coordinator parses
   once at admission (validate) and once more on the worker. *)
let parse_us = Pstats.buf ()

let self_id () = Thread.id (Thread.self ())

let begin_run entry =
  let r =
    {
      entry;
      parse_s = 0.;
      run_t0 = entry;
      run_t1 = entry;
      rounds = [];
      lookups = [];
      frames = 0;
      bytes = 0;
    }
  in
  let id = self_id () in
  locked (fun () -> Hashtbl.replace slots id r);
  r

let current () =
  let id = self_id () in
  match locked (fun () -> Hashtbl.find_opt slots id) with
  | Some r -> r
  | None -> begin_run (now ())

(* The finished run whose engine produced [o], removed from the
   registry. *)
let claim (o : Pe.outcome) =
  locked (fun () ->
      match List.partition (fun (o', _) -> o' == o) !finished with
      | (_, r) :: _, rest ->
          finished := rest;
          Some r
      | [], _ -> None)

(* Visit traffic the decorators saw, over every run: frames in both
   directions, request bytes sent and reply bytes read.  A round that
   raised (retry budget gone, or a site's error reply) may leave replies
   the servers sent but the client never read; such rounds are counted
   so the accounting check knows when reply totals can only bound the
   servers' from below. *)
let frames_total = Atomic.make 0
let sent_bytes_total = Atomic.make 0
let recv_bytes_total = Atomic.make 0
let aborted_rounds = Atomic.make 0

let wrap_transport run (tr : Transport.t) : Transport.t =
  let visit_round ~round ~label ~retry reqs =
    let s0 = tr.Transport.stats () in
    let t0 = now () in
    let account () =
      let t1 = now () in
      let s1 = tr.Transport.stats () in
      let frames = s1.Transport.frames - s0.Transport.frames in
      let sent = s1.Transport.sent_bytes - s0.Transport.sent_bytes in
      let recv = s1.Transport.received_bytes - s0.Transport.received_bytes in
      ignore (Atomic.fetch_and_add frames_total frames);
      ignore (Atomic.fetch_and_add sent_bytes_total sent);
      ignore (Atomic.fetch_and_add recv_bytes_total recv);
      run.frames <- run.frames + frames;
      run.bytes <- run.bytes + sent + recv;
      if Atomic.get tracing && reqs <> [] then
        run.rounds <- { rd_t0 = t0; rd_t1 = t1 } :: run.rounds
    in
    match tr.Transport.visit_round ~round ~label ~retry reqs with
    | replies ->
        account ();
        replies
    | exception ex ->
        account ();
        Atomic.incr aborted_rounds;
        raise ex
  in
  { tr with Transport.visit_round }

let wrap_cache run (c : Stage_cache.t) : Stage_cache.t =
  let lookup ~qkey ~fid =
    let t0 = now () in
    let r = c.Stage_cache.lookup ~qkey ~fid in
    if Atomic.get tracing then
      run.lookups <-
        { lk_t0 = t0; lk_t1 = now (); lk_hit = Option.is_some r } :: run.lookups;
    r
  in
  { c with Stage_cache.lookup }

(* Mount tune: decorate the cache the coordinator installed, if any. *)
let tune cl =
  let c = Cluster.stage_cache cl in
  if c != Stage_cache.noop then Cluster.set_stage_cache cl (wrap_cache (current ()) c)

let wrap ((module E : Pe.S) : Pe.packed) : Pe.packed =
  (module struct
    type query = E.query

    let name = E.name

    let parse text =
      let t0 = now () in
      let q = E.parse text in
      let t1 = now () in
      let r = begin_run t0 in
      r.parse_s <- t1 -. t0;
      if Atomic.get tracing then Pstats.add parse_us (1e6 *. (t1 -. t0));
      q

    let make_cluster ?domains ?transport () =
      let r = current () in
      E.make_cluster ?domains ?transport:(Option.map (wrap_transport r) transport) ()

    let run cl q =
      let r = current () in
      r.run_t0 <- now ();
      let o = E.run cl q in
      r.run_t1 <- now ();
      locked (fun () -> finished := (o, r) :: !finished);
      o
  end)

(* Forget registered runs (between a workload's set-ups). *)
let reset () =
  locked (fun () ->
      Hashtbl.reset slots;
      finished := []);
  List.iter (fun a -> Atomic.set a 0)
    [ frames_total; sent_bytes_total; recv_bytes_total; aborted_rounds ];
  Pstats.clear parse_us
