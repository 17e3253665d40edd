(** Empirical statistical (total-variation) distance between sampled string
    distributions — the measuring stick of 1/p-security (Appendix C.1),
    which bounds the distinguishability of the real- and ideal-world
    ensembles by 1/p instead of a negligible quantity.

    For distributions over a small support (protocol outputs, event
    summaries) the plug-in estimator
    TV = ½ Σ_x |p̂(x) − q̂(x)| converges at O(√(support/trials)); the
    [bias_bound] helper gives a conservative slack for bound checks. *)

type counts = (string, int) Hashtbl.t

val count : ?jobs:int -> (int -> string) -> trials:int -> counts
(** Tabulate [trials] samples (the function receives the trial index).
    Samples are drawn in parallel chunks on up to [jobs] domains (default
    {!Parallel.default_jobs}); the result is independent of [jobs]. *)

val bias_bound : support:int -> trials:int -> float
(** A conservative upper bound on the estimator's bias + 3σ fluctuation:
    √(support / trials). *)

val sample_distance :
  ?jobs:int -> a:(int -> string) -> b:(int -> string) -> trials:int -> unit -> float
(** Plug-in total-variation distance between the empirical distributions
    [count a] and [count b]. *)
