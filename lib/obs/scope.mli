(** The request scope: one domain-local slot holding a computation's trace
    args, its progress sink and its own counter cells.

    {!within} installs a scope on the calling domain, and
    [Fairness.Parallel] re-installs the caller's scope around every task
    it hands to a pool domain — the only place a computation changes
    domain.  So whatever the computation records, on any domain, is
    attributed to its scope alone: {!Trace} appends the scope's args to
    each event, {!Metrics.add} also bumps the scope's cell, and the
    progress firing points (estimate batches, racer rounds) call
    {!progress}.  A scope is write-only from the computation's side, so it
    cannot perturb a result. *)

type progress = { after : int; batch : int; running_mean : float; running_std_err : float }
(** One convergence point: trials so far, the batch that just landed, and
    the running mean and standard error. *)

type t

val create : args:(string * string) list -> sink:(progress -> unit) -> t
(** Zeroed cells for every counter registered so far.  The sink may be
    called from any domain of the computation. *)

val current : unit -> t option

val within : t option -> (unit -> 'a) -> 'a
(** Run with the given scope (or none) installed on the calling domain,
    restoring the previous one afterwards, also on exception. *)

val slot : unit -> int
(** A fresh cell index; {!Metrics} takes one per counter it registers. *)

val count : t -> int -> int

(** {2 Producers} — no-ops on a domain with no scope installed. *)

val add : int -> int -> unit
(** [add ix n] adds [n] to cell [ix] of the current scope (atomically). *)

val args : unit -> (string * string) list

val progress : progress -> unit
(** Call the current scope's sink; the firing points contain a raise. *)
