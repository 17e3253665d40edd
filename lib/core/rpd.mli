(** The Rational-Protocol-Design attack game (Section 2): a zero-sum game
    between the protocol designer D (picks Π, minimizes the attacker's
    utility) and the attacker A (picks a strategy, maximizes it).

    Experiments tabulate û(Π, A) over finite designer and attacker strategy
    spaces; an optimally fair protocol is a minimax row of the table, and
    the footnote-1 remark — optimal protocols induce an equilibrium of the
    attack meta-game — is checked with {!is_equilibrium}. *)

type table = {
  designer : string array;  (** row labels: protocols *)
  attacker : string array;  (** column labels: adversary strategies *)
  utility : float array array;  (** utility.(row).(col) = û(Π_row, A_col) *)
}

val make : designer:string array -> attacker:string array -> utility:float array array -> table
(** @raise Invalid_argument on ragged or mismatched dimensions. *)

val minimax : table -> int * float
(** Designer's pure minimax: the row minimizing the attacker's best
    response, with its value — the "optimally fair" protocol of
    Definition 2 within the tabulated space. *)

val maximin : table -> int * float
(** Attacker's pure maximin: the column maximizing its guaranteed utility. *)

val is_equilibrium : table -> row:int -> col:int -> bool
(** (row, col) is a pure saddle point: no designer deviation lowers and no
    attacker deviation raises the utility. *)

val has_pure_equilibrium : table -> (int * int) option

val pp : Format.formatter -> table -> unit
