(** The designer-bias sweep: how the measured attack value moves with the
    probability q that ΠOpt-2SFE's first release goes to p1 (E13).  The
    landscapes over the preference vector γ and the party count n are
    raced by [Fair_search.Landscape] instead.

    The sweep returns a rendered table (and the raw numbers) so both the
    CLI and downstream code can consume it. *)

type table = {
  header : string list;
  rows : string list list;
  data : (string * float) list;
      (** label ↦ measured best utility, always in natural-sorted label
          order (digit runs compare numerically) regardless of the order
          the sweep visited the grid — so machine consumers diffing two
          sweeps never see a spurious reordering.  The rendered [rows]
          keep the sweep's own order. *)
}

val natural_compare : string -> string -> int
(** The label order used for [data]: "n=2" < "n=10". *)

val render : ?markdown:bool -> table -> string

val q_sweep : ?jobs:int -> qs:float list -> trials:int -> seed:int -> unit -> table
(** The E13 designer sweep: sup_A u against opt2(q) per bias q — the attack
    game's value curve with its minimum at q = 1/2. *)
