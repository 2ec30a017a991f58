module Wire = Pax_wire.Wire

type entry = {
  mutable e_site : int;
  mutable e_epoch : int;  (* epoch of the move that placed it here *)
  mutable e_visits : int;
}

type t = {
  kind : Wire.frag_kind;
  n_frags : int;
  n_sites : int;
  entries : entry array;
  mutable epoch : int;
      (* published: raised only with the placement change it versions *)
  mutable reserved : int;  (* high-water mark of reserved epochs *)
  lock : Mutex.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(kind = Wire.Tree_frag) ~n_frags ~n_sites ~assign () =
  if n_frags < 1 then invalid_arg "Ptable.create: need at least one fragment";
  if n_sites < 1 then invalid_arg "Ptable.create: need at least one site";
  let entries =
    Array.init n_frags (fun fid ->
        let site = assign fid in
        if site < 0 || site >= n_sites then
          invalid_arg "Ptable.create: assign out of range";
        { e_site = site; e_epoch = 0; e_visits = 0 })
  in
  {
    kind;
    n_frags;
    n_sites;
    entries;
    epoch = 0;
    reserved = 0;
    lock = Mutex.create ();
  }

let kind t = t.kind
let n_frags t = t.n_frags
let n_sites t = t.n_sites
let epoch t = locked t (fun () -> t.epoch)

let check_fid t fid =
  if fid < 0 || fid >= t.n_frags then invalid_arg "Ptable: fragment out of range"

let site_of t fid =
  check_fid t fid;
  locked t (fun () -> t.entries.(fid).e_site)

(* The live assign closure: a cluster built over it snapshots the
   placement current at *its* creation ([Cluster.create_gen] evaluates
   assign eagerly), so every newly admitted run sees a consistent
   placement while older in-flight runs keep their own snapshot —
   exactly the drain-free semantics the retirement fence assumes. *)
let assign t fid = site_of t fid

let entry t fid =
  check_fid t fid;
  locked t (fun () ->
      let e = t.entries.(fid) in
      (e.e_site, e.e_epoch, e.e_visits))

let visits t fid =
  check_fid t fid;
  locked t (fun () -> t.entries.(fid).e_visits)

let record_touches t touches =
  if Array.length touches <> t.n_frags then
    invalid_arg "Ptable.record_touches: wrong fragment count";
  locked t (fun () ->
      Array.iteri
        (fun fid n -> t.entries.(fid).e_visits <- t.entries.(fid).e_visits + n)
        touches)

let reset_visits t =
  locked t (fun () -> Array.iter (fun e -> e.e_visits <- 0) t.entries)

let site_loads t =
  locked t (fun () ->
      let loads = Array.make t.n_sites 0 in
      Array.iter (fun e -> loads.(e.e_site) <- loads.(e.e_site) + e.e_visits)
        t.entries;
      loads)

(* A reserved epoch is not published: runs admitted between
   [reserve_epoch] and [commit_move] must carry the epoch that matches
   the placement they route by, or they would reach the source after
   it is fenced at the new epoch. *)
let reserve_epoch t =
  locked t (fun () ->
      t.reserved <- t.reserved + 1;
      t.reserved)

let commit_move t ~fid ~site ~epoch =
  check_fid t fid;
  if site < 0 || site >= t.n_sites then invalid_arg "Ptable: site out of range";
  locked t (fun () ->
      let e = t.entries.(fid) in
      e.e_site <- site;
      e.e_epoch <- epoch;
      if epoch > t.epoch then t.epoch <- epoch;
      if epoch > t.reserved then t.reserved <- epoch)

let move t ~fid ~site =
  let e = reserve_epoch t in
  commit_move t ~fid ~site ~epoch:e;
  e

let to_list t =
  locked t (fun () ->
      List.init t.n_frags (fun fid ->
          let e = t.entries.(fid) in
          (fid, e.e_site, e.e_epoch, e.e_visits)))

(* ------------------------------------------------------------------ *)
(* Snapshot                                                           *)
(* ------------------------------------------------------------------ *)

let kind_name = function Wire.Tree_frag -> "tree" | Wire.Graph_frag -> "graph"

let kind_of_name = function
  | "tree" -> Some Wire.Tree_frag
  | "graph" -> Some Wire.Graph_frag
  | _ -> None

(* Plain text, one fact per line, written atomically (tmp + rename) so
   a crashed coordinator never leaves a torn snapshot behind. *)
let save t path =
  let body =
    locked t (fun () ->
        let buf = Buffer.create 256 in
        Buffer.add_string buf (Printf.sprintf "pax-placement 1 %s\n" (kind_name t.kind));
        Buffer.add_string buf
          (Printf.sprintf "frags %d sites %d epoch %d\n" t.n_frags t.n_sites
             t.reserved);
        Array.iteri
          (fun fid e ->
            Buffer.add_string buf
              (Printf.sprintf "%d %d %d %d\n" fid e.e_site e.e_epoch e.e_visits))
          t.entries;
        Buffer.contents buf)
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc body);
  Sys.rename tmp path

let load path =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  with
  | exception Sys_error m -> fail "placement snapshot: %s" m
  | [] -> fail "placement snapshot %s: empty file" path
  | header :: rest -> (
      let kind =
        match String.split_on_char ' ' header with
        | [ "pax-placement"; "1"; k ] -> kind_of_name k
        | _ -> None
      in
      match kind with
      | None -> fail "placement snapshot %s: bad header %S" path header
      | Some kind -> (
          match rest with
          | [] -> fail "placement snapshot %s: missing dimensions" path
          | dims :: entries -> (
              match String.split_on_char ' ' dims with
              | [ "frags"; nf; "sites"; ns; "epoch"; ep ] -> (
                  match
                    ( int_of_string_opt nf,
                      int_of_string_opt ns,
                      int_of_string_opt ep )
                  with
                  | Some n_frags, Some n_sites, Some epoch
                    when n_frags >= 1 && n_sites >= 1 && epoch >= 0 -> (
                      let t =
                        {
                          kind;
                          n_frags;
                          n_sites;
                          entries =
                            Array.init n_frags (fun _ ->
                                { e_site = 0; e_epoch = 0; e_visits = 0 });
                          epoch;
                          reserved = epoch;
                          lock = Mutex.create ();
                        }
                      in
                      let seen = Array.make n_frags false in
                      let rec fill = function
                        | [] ->
                            if Array.for_all Fun.id seen then Ok t
                            else fail "placement snapshot %s: missing fragments" path
                        | "" :: rest -> fill rest
                        | line :: rest -> (
                            match
                              List.filter_map int_of_string_opt
                                (String.split_on_char ' ' line)
                            with
                            | [ fid; site; fepoch; fvisits ]
                              when fid >= 0 && fid < n_frags && site >= 0
                                   && site < n_sites && fepoch >= 0
                                   && fepoch <= epoch && fvisits >= 0
                                   && not seen.(fid) ->
                                seen.(fid) <- true;
                                let e = t.entries.(fid) in
                                e.e_site <- site;
                                e.e_epoch <- fepoch;
                                e.e_visits <- fvisits;
                                fill rest
                            | _ ->
                                fail "placement snapshot %s: bad entry %S" path
                                  line)
                      in
                      fill entries)
                  | _ -> fail "placement snapshot %s: bad dimensions %S" path dims)
              | _ -> fail "placement snapshot %s: bad dimensions %S" path dims)))
