(** The experiment registry: one entry per quantitative claim of the paper
    (see DESIGN.md §3 for the index).  Every experiment returns a set of
    checks "measured vs expected", each built by {!Fairness.Check.make} from
    its evidence: {!Fairness.Check} owns the tolerance that stands in for the
    paper's negligible slack, and the verdict.

    [trials] scales all Monte-Carlo sample sizes (each experiment applies
    its own multiplier to keep runtimes balanced); [seed] makes the whole
    run reproducible; [jobs] bounds the number of domains each estimate may
    use — it changes the wall clock only, never the numbers (see
    {!Fairness.Montecarlo}). *)

type outcome = {
  checks : Fairness.Check.t list;
  notes : string list;
  rows : (string list * string list list) option;  (** optional (header, rows) detail table *)
}
(** What one experiment measures. *)

(** {2 sup_A instances}

    Every supremum the registry, the search, the grids and the chaos sweep
    report is taken over one {!instance}: the registry maximises its fixed
    zoo over it, and the {!Fair_search} subsystem races the full strategy
    space over it instead of trusting the hand-written zoo. *)

type instance = {
  target : Fair_search.Racing.target;
      (** protocol, function, payoff vector, environment, event accounting *)
  space : Fair_search.Strategy_space.space;  (** arms to race *)
  zoo : Fair_exec.Adversary.t list;
      (** the fixed zoo the registry maximises over and the search must
          dominate (for the certificate's searched-vs-zoo comparison) *)
  bound : float;  (** the paper's closed-form bound on sup_A u *)
  bound_label : string;
}

type spec = {
  eid : string;
  etitle : string;  (** one-line title, printed by the CLI's [list] *)
  eclaim : string;  (** one-line claim, printed by the CLI's [list] *)
  title : string;  (** the report's heading *)
  claim : string;  (** the paper statement being reproduced *)
  body : trials:int -> seed:int -> jobs:int -> outcome;
  target : (unit -> instance) option;  (** the instance [searched] races, if any ({!no_target}) *)
}

val registry : spec list
(** E1 .. E16, in order. *)

val find : string -> spec option
(** Case-insensitive lookup by id. *)

val no_target : spec -> string
(** Why a spec has no [target] (E12 and E15 measure environment statistics,
    and E16 sweeps four instances over fault schedules): the one text the
    CLI prints and the service returns for a search of it. *)

type result = { spec : spec; outcome : outcome }

val run : spec -> trials:int -> seed:int -> jobs:int -> result

val all_ok : result -> bool

val pp : Format.formatter -> result -> unit
(** Human-readable report (with the detail table). *)

val to_markdown : result -> string

val result_to_json : result -> Fairness.Json.t
(** Stable machine-readable rendering (fixed key order, every field present)
    — the wire body the certificate service ({!Fair_service}) serves for
    [run]-kind queries, where cache hits are byte-compared against fresh
    computes. *)

val searched :
  ?budget:int ->
  ?zoo:bool ->
  seed:int ->
  jobs:int ->
  spec ->
  Fair_search.Certificate.t option
(** Race the experiment's strategy space under [budget] total trials
    (default 20k) with {!Fair_search.Racing.race_target} and certify the
    result against the paper bound.  With [~zoo:true] the fixed adversary
    zoo joins the race as extra arms after the space points (same shared
    trial grid, same budget), and the certificate records the zoo's best
    raced estimate — so the searched best is a max over a superset of the
    zoo arms and dominates it by construction.  [None] iff the spec has no
    target.  Deterministic in ([budget], [seed]) — [jobs] never changes
    the numbers.
    @raise Invalid_argument if [budget] is below the arm count. *)

val search_table : ?markdown:bool -> Fair_search.Certificate.t list -> string
(** The "searched" summary table (one row per experiment). *)

(** {2 Grids}

    One instance per grid point.  Each γ or n point races like [searched]
    without the zoo and yields a full certificate, labelled by the point;
    each q point takes the plain max of the two greedy attackers. *)

val gamma_grid :
  ?gammas:Fairness.Payoff.t list ->
  jobs:int ->
  budget:int ->
  seed:int ->
  unit ->
  (string * Fair_search.Certificate.t) list
(** ΠOpt-2SFE (swap) raced per preference vector (default
    {!Fairness.Payoff.sweep}) against Theorem 3's (γ10+γ11)/2.  [budget] is
    per point; point [i] races on seed [seed + 1000·i].
    @raise Invalid_argument if [budget] is below the strategy space's arm
    count. *)

val n_grid :
  ?ns:int list ->
  jobs:int ->
  budget:int ->
  seed:int ->
  unit ->
  (string * Fair_search.Certificate.t) list
(** ΠOpt-nSFE (concat) raced per party count (default 2..6) against
    Lemma 13's ((n−1)γ10+γ11)/n.  Point [n] races on seed [seed + 1000·n].
    @raise Invalid_argument if [budget] is below a point's arm count. *)

val grid_table : ?markdown:bool -> (string * Fair_search.Certificate.t) list -> string
(** The table [search --grid] prints: point, best arm, searched, bound,
    margin, verdict. *)

val q_sweep :
  jobs:int ->
  qs:float list ->
  trials:int ->
  seed:int ->
  unit ->
  (float * Fairness.Montecarlo.estimate) list
(** E13's designer sweep: sup_A u against opt2(q), the ΠOpt-2SFE whose
    first release goes to p1 with probability q, over greedy-p1 and
    greedy-p2.  Point [i] runs on seed [seed + i]; the curve's minimum sits
    at q = 1/2. *)

val q_table : ?markdown:bool -> (float * Fairness.Montecarlo.estimate) list -> string
(** The table [sweep q] prints: q, sup_A u, distance from (γ10+γ11)/2. *)

(** {2 Chaos sweep (E16)}

    The fault-injection layer ({!Fair_faults}) lets E16 exercise the
    "deviation collapses to abort" reduction instead of assuming it: each
    protocol races its adversary zoo over faulty channels and the measured
    best-attacker utility must still respect the clean-channel bound. *)

val chaos_schedules : (string * string) list
(** The default fault grid as [(name, spec)] pairs; [""] is the faults-off
    identity schedule (kept in the grid as a bit-identity self-test).
    Specs use the {!Fair_faults.Faults.parse} grammar. *)

val chaos :
  ?schedules:(string * string) list -> trials:int -> seed:int -> jobs:int -> unit -> result
(** E16's run with a custom schedule grid — the CLI's [chaos --faults SPEC]
    entry point.  Each (protocol, schedule) combination runs
    [max 40 (trials / 8)] trials with a hardened zoo
    ({!Fair_faults.Faults.harden_adversary}) and checks the measured sup
    against the protocol's bound; an unauthenticated echo protocol under a
    bit-flip schedule is the negative control. *)
