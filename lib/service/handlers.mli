(** The one place a query becomes bytes.

    Both the daemon's executor and the CLI's [query --no-daemon] inline
    fallback answer through {!answer}, so "served via socket" and "computed
    inline" are byte-identical {e by construction} — the same registry
    entry, the same seed derivation, the same serializer.  (The
    [@service-smoke] alias additionally asserts it empirically.)

    Shape-agnostic: the returned body is opaque to the rest of the service.
    [Search] answers with {!Fair_search.Certificate.to_string} (exactly the
    bytes [fairness search -o] writes to disk); [Run] answers with the
    experiment result's stable JSON ({!Fair_analysis.Experiments.result_to_json}).
    New certificate shapes plug in as new kinds without touching cache,
    scheduler or protocol. *)

val resolve : Proto.query -> (Fair_analysis.Experiments.spec, Failure.t) result
(** The registry check: the query's experiment, or {!Failure.Unknown_query}
    for an unknown id or a [Search] against an experiment with no search
    target (E12, E15, E16).  The server calls it before the cache probe,
    so a usage error never takes a queue slot. *)

val answer : jobs:int -> Proto.query -> (string * bool, Failure.t) result
(** [(body, ok)] — the certificate bytes and their verdict (within bound /
    all checks pass).  [jobs] bounds the domain pool and never changes the
    bytes (the determinism guarantee of the whole estimation stack).
    Total: a query {!resolve} refuses is its [Unknown_query], a raising
    computation is {!Failure.Query_failed}; only fatal exceptions
    propagate. *)
