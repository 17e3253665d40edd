(** A process-wide registry of named counters, gauges and fixed-bucket
    histograms, sharded per domain.

    {b Write path.}  Each domain that touches an instrument gets its own
    {e cell} (allocated once, on first touch, via domain-local storage), so
    pool workers record lock-free: an increment is a DLS lookup plus a plain
    store, with no cross-domain contention.  When the registry is disabled
    (the default) every recording call is a single atomic load and branch —
    cheap enough to leave in the hottest paths.

    {b Read path.}  {!snapshot} merges the cells of every instrument {e in
    domain-index order} ({!Domain_id}), so a snapshot taken at a quiescent
    point is deterministic.  Counter and histogram cells hold integers and
    merge by addition, which makes their totals independent not only of the
    merge order but of which domain did which work: for a workload whose
    {e set} of recordings is deterministic (everything driven by
    {!Fairness.Parallel}'s fixed-chunk schedule), the snapshot is identical
    at any [-j].

    {b Zero perturbation.}  Instruments never touch an RNG stream and never
    influence scheduling; enabling or disabling the registry cannot change
    any estimate or certificate (enforced by [test/test_obs.ml]).

    Reads concurrent with writers see a monotone approximation; take
    snapshots at quiescent points (after a parallel region) for exact
    totals. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every cell and unset every gauge (instruments stay registered).
    Only meaningful at a quiescent point — concurrent writers may race the
    zeroing. *)

(** {2 Instruments}

    Registration is idempotent: the same name returns the same instrument,
    so modules can register at init without coordination.  Names are
    conventionally dotted ([engine.rounds], [mc.trials]). *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
(** No-ops (one atomic load) while the registry is disabled; otherwise
    also adds to the calling domain's {!Scope}. *)

val scoped : Scope.t -> (string * int) list
(** A scope's non-zero counters, sorted by name. *)

type gauge

val gauge : string -> gauge

val set_gauge : gauge -> float -> unit
(** Last write wins; gauges are not sharded (set them from one domain). *)

type histogram

val histogram : buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds: an observation [v]
    lands in the first bucket with [v <= bound], or in the overflow slot.
    @raise Invalid_argument if [buckets] is empty or not strictly
    increasing, or if the name is already registered with different
    buckets. *)

val observe : histogram -> float -> unit

(** {2 Snapshots} *)

type hist_snapshot = {
  hbuckets : (float * int) list;  (** (upper bound, count), bucket order *)
  overflow : int;  (** observations above the last bound *)
  total : int;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** gauges that were set, sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** Merge all cells (domain-index order) under the registry lock.  Includes
    instruments that were never recorded (zero counts), so the key set
    depends only on what was registered. *)
