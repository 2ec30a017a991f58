(** The coordinator-side placement table: epoch-versioned fid → site,
    the explicit, persistent form of what used to be an implicit
    load-time convention (docs/SHARDING.md).

    One table per fragment-id space — tree fragments and graph
    fragments have independent placements, so a serving layer running
    both keeps two tables.  Every mutation happens under an internal
    lock; concurrent admission threads may read while an admin thread
    moves.

    {b Epochs.}  The table carries one global epoch, 0 at creation,
    raised by every committed move, together with the placement change
    (one lock), so a run stamped with it routes by the placement it
    names.  A run admitted at epoch [e] carries [e] on
    its visit requests ([Client.set_epoch]); a site that retired a
    fragment at epoch [r] refuses visits stamped [>= r] (stale routing
    — the sender's table should already place the fragment elsewhere)
    and keeps serving older stamps from retained data.  Snapshots
    preserve epochs, so a restarted coordinator replaying its table
    resumes {e at least} where it left off — epoch monotonicity across
    the snapshot boundary is what makes replay against live,
    idempotent servers safe. *)

type t

(** [create ~n_frags ~n_sites ~assign ()] — a fresh table at epoch 0
    with the given initial placement.  [kind] (default [Tree_frag])
    names the fragment space the table governs.
    @raise Invalid_argument on empty dimensions or an out-of-range
    assignment. *)
val create :
  ?kind:Pax_wire.Wire.frag_kind ->
  n_frags:int ->
  n_sites:int ->
  assign:(int -> int) ->
  unit ->
  t

val kind : t -> Pax_wire.Wire.frag_kind
val n_frags : t -> int
val n_sites : t -> int

(** Current global epoch (0 until the first committed move); a
    reserved but uncommitted epoch is not visible here. *)
val epoch : t -> int

(** Site currently holding a fragment.
    @raise Invalid_argument on an out-of-range fid. *)
val site_of : t -> int -> int

(** The {e live} assignment closure, [assign t fid = site_of t fid].
    A cluster built over it snapshots the placement current at its
    creation (clusters evaluate [assign] eagerly), so each newly
    admitted run sees one consistent placement while older in-flight
    runs keep theirs — the drain-free semantics the retirement fence
    assumes. *)
val assign : t -> int -> int

(** [(site, epoch-of-last-move, visits)] for one fragment. *)
val entry : t -> int -> int * int * int

val visits : t -> int -> int

(** Add per-fragment touch counts (from [Cluster.frag_touches]) into
    the table's hotness counters.
    @raise Invalid_argument if the array length is not [n_frags]. *)
val record_touches : t -> int array -> unit

val reset_visits : t -> unit

(** Per-site sums of fragment visit counters — the rebalancer's load
    signal. *)
val site_loads : t -> int array

(** {1 Moves}

    A live migration is two-phase: [reserve_epoch] first, then install
    the image at the target under that epoch, then [commit_move], then
    fence the source.  If the install fails, the reserved epoch is
    simply skipped — epochs stay monotonic, no placement changed.
    [move] combines both for in-process clusters (no servers holding
    data).  Admin operations are serialized by the caller (CLI admin
    lock); the table's own lock only protects readers. *)

(** Reserve and return the next epoch, above every epoch reserved or
    committed so far.  {!epoch} and the placement are unchanged until
    {!commit_move}. *)
val reserve_epoch : t -> int

(** Point [fid] at [site] as of [epoch] and raise the global epoch to
    [epoch] if it is ahead, under one lock: a run admitted afterwards
    sees both. *)
val commit_move : t -> fid:int -> site:int -> epoch:int -> unit

(** [reserve_epoch] + [commit_move]; returns the new epoch. *)
val move : t -> fid:int -> site:int -> int

(** [(fid, site, epoch, visits)] for every fragment, fid-ascending —
    what [pax admin placement] dumps. *)
val to_list : t -> (int * int * int * int) list

(** {1 Snapshot}

    Plain-text, atomic (tmp + rename).  The epoch saved is the highest
    reserved or committed, so a reloaded table never reissues an epoch
    a skipped move reserved.  [load] is total: any malformed, truncated
    or inconsistent file yields [Error], never an exception or a
    half-filled table. *)

val save : t -> string -> unit
val load : string -> (t, string) result
