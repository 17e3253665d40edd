(** Measured utility surfaces: run the best-response race
    ({!Racing.race_target}) at every point of a parameter grid and tabulate
    the searched supremum against the paper's closed-form bound — the
    empirical landscape over Γ⁺_fair (per preference vector) and over the
    party count.

    Each grid point produces a full {!Certificate.t}, so a landscape run is
    also a batch of diffable artifacts, not just a table. *)

type table = {
  header : string list;
  rows : string list list;
  points : (string * Certificate.t) list;  (** label ↦ certificate, grid order *)
}

val render : ?markdown:bool -> table -> string

val gamma_grid :
  ?gammas:Fairness.Payoff.t list ->
  ?jobs:int ->
  budget:int ->
  seed:int ->
  unit ->
  table
(** ΠOpt-2SFE (swap) raced per preference vector (default
    {!Fairness.Payoff.sweep}); bound = Theorem 3's (γ10+γ11)/2.  [budget]
    is per grid point; point [i] races on seed [seed + 1000·i].
    @raise Invalid_argument if [budget] is below the strategy space's arm
    count. *)

val n_grid :
  ?ns:int list -> ?jobs:int -> budget:int -> seed:int -> unit -> table
(** ΠOpt-nSFE (concat) raced per party count (default 2..6); bound =
    Lemma 13's ((n−1)γ10+γ11)/n.  Point [n] races on seed [seed + 1000·n].
    @raise Invalid_argument if [budget] is below a point's arm count. *)
