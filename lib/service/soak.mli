(** The chaos soak harness — the service's one fault driver: scripted
    clients vs. a live server under injected faults, with classification
    totality as the acceptance bar.

    {!run} starts a server, unleashes [clients] threads each running
    [ops_per_client] scripted operations drawn from a per-client
    deterministic RNG child (clean retrying queries, tight-deadline
    cache-bypassing queries, and two raw-socket peers: a query frame whose
    payload is cut short, and a mid-frame read stall), while the driver
    thread injects [worker_kills] scripted worker deaths
    ({!Server.chaos_kill_workers}) — each chased by a fresh
    unique-key query so the supervision path definitely fires — and, when
    [restart_server] is set, one in-process daemon crash-restart on the
    same socket and cache mid-soak.

    The report asserts (via [sr_problems], empty iff {!passed}):
    {ul
    {- {b classification totality} — every op ends in a taxonomy label
       (["ok-fresh"], ["ok-cached"], a {!Failure.code}, ["stalled"], or
       ["exhausted:<code>"]); no hangs (all client threads joined, every
       socket read bounded by a timeout);}
    {- {b byte identity} — the post-soak heal queries must serve exactly
       the bytes an inline, resilience-free {!Handlers.answer} computes;}
    {- {b the cache heals} — after kills, truncations, stalls and the
       restart, a clean query per experiment succeeds;}
    {- {b supervision fired} — injected kills produced at least one
       observed worker restart.}}

    Everything is seeded: same [config] + same socket ⇒ the same op
    script (wall-clock races only move which of several {e classified}
    outcomes an op lands on, never whether it is classified). *)

type config = {
  seed : int;
  clients : int;  (** concurrent scripted client threads *)
  ops_per_client : int;
  workers : int;  (** server executor-pool size *)
  queue_limit : int;
  cost_budget : float;  (** forwarded to {!Server.start} *)
  worker_kills : int;  (** scripted worker deaths injected by the driver *)
  restart_server : bool;  (** one mid-soak stop + start on the same socket/cache *)
}

val default_config : config
(** The [@soak-smoke] schedule: 4 clients x 3 ops, 2 workers, 2 kills,
    one restart, seed 1105 — sized to finish in about two seconds. *)

type report = {
  sr_ops : int;  (** scripted ops classified (clients x ops + driver chasers) *)
  sr_ok : int;  (** ops that ended ["ok-fresh"] or ["ok-cached"] *)
  sr_outcomes : (string * int) list;  (** label → count, name-sorted *)
  sr_worker_kills : int;
  sr_worker_restarts : int;  (** observed across both server incarnations *)
  sr_server_restarts : int;
  sr_cache_healed : bool;
  sr_problems : string list;  (** empty = the soak passed *)
}

val run : ?config:config -> socket:string -> unit -> report
(** Run the soak on [socket] (created, used and removed by the harness).
    Blocks until every client thread has joined and the server is
    stopped.  @raise Invalid_argument if the inline reference compute
    itself fails (the harness is broken, not the server). *)

val passed : report -> bool
val report_to_string : report -> string
(** One human-readable summary block, problems included. *)
