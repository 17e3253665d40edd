(** Per-kind moving cost estimates for admission control.

    Queue {e depth} is a poor overload signal when requests differ by three
    orders of magnitude in cost; this module gives {!Sched}'s cost-budget
    admission an exponentially weighted moving average of cold-compute
    wall time per (kind, uppercased experiment id) — the same
    normalization as the content address.

    Estimates influence only shed-or-admit decisions, never a certificate
    byte: the model is read at admission and written after compute, both
    outside the engine.  All operations are thread- and domain-safe. *)

type t

val create : ?alpha:float -> ?default_s:float -> ?floor_s:float -> unit -> t
(** [alpha] (default 0.2) is the EWMA weight of the newest observation;
    [default_s] (default 0.05, a typical cold search) is the estimate for
    a never-observed key; [floor_s] (default 10 µs) clamps every
    observation from below so a cache-warm burst cannot teach the model
    that work is free (which would let a cost budget admit unbounded
    depth).  @raise Invalid_argument on non-positive or non-finite
    parameters, or [alpha] outside (0,1]. *)

val observe : t -> kind:string -> experiment:string -> wall_s:float -> unit
(** Fold one measured cold-compute wall time into the estimate.
    Non-finite or sub-floor values clamp to [floor_s]. *)

val estimate : t -> kind:string -> experiment:string -> float
(** Current cost estimate in seconds ([default_s] when unobserved). *)

val snapshot : t -> (string * float) list
(** Every ["kind/EXPERIMENT"] key with its current estimate, name-sorted —
    surfaced under [resilience.cost_estimates] in {!Server.stats_json}. *)

val seed_from_file : t -> string -> int
(** Warm-start from a previous run's [serve --qlog] JSONL file: folds the
    [wall_s] of every cold-tier line in (cache hits and coalesced riders
    are skipped — they would teach the model that searches are free) and
    returns their number.  Best-effort by design: a missing file,
    truncated tail line or foreign JSON contribute 0. *)
