(** Per-experiment search certificates.

    A certificate is the auditable residue of one best-response search: what
    was searched (arm count, budget, rounds), what won (arm identity,
    utility, confidence interval), how it compares to the fixed zoo and to
    the paper's proven bound, and the margin left.  Serialized to JSON so
    attack-strength regressions are diffable across PRs: a later change
    that weakens the search (or strengthens a protocol bug) shows up as a
    moved [utility]/[margin] in version control rather than a silently
    different headline table. *)

type t = {
  experiment : string;  (** e.g. "E2", or a landscape grid label *)
  seed : int;
  budget : int;  (** trial budget offered *)
  spent : int;  (** trials actually consumed (≤ budget) *)
  rounds : int;  (** racing rounds run *)
  mode : string;
      (** always ["paired"] (the CRN shared-grid racer) for new
          certificates; older ones may read ["unpaired"], and those
          predating the tag parse as ["unpaired"] *)
  arms_total : int;
  arms_surviving : int;
  best_arm : string;  (** winning strategy's name *)
  utility : float;  (** measured sup_A u *)
  std_err : float;
  trials : int;  (** trials behind the winning estimate *)
  zoo_best : (string * float) option;
      (** the fixed zoo's best, raced under the same budget, when requested *)
  bound : float;  (** the paper's closed-form bound *)
  bound_label : string;
  margin : float;  (** bound − utility *)
  within_bound : bool;  (** {!Fairness.Check.within_bound}: utility ≤ bound + 3·std_err *)
}

val make :
  experiment:string ->
  seed:int ->
  budget:int ->
  ?zoo_best:string * float ->
  bound:float ->
  bound_label:string ->
  outcome:'a Racing.outcome ->
  arm_name:('a -> string) ->
  unit ->
  t

val to_json : t -> Fairness.Json.t
val of_json : Fairness.Json.t -> (t, string) result

val to_string : t -> string
(** Pretty-printed JSON; [of_string] inverts it exactly. *)

val of_string : string -> (t, string) result

val save : path:string -> t -> unit
val load : path:string -> (t, string) result

val header : string list
val row : t -> string list
(** One summary-table line: id, arms, best arm, searched utility, zoo best,
    bound, margin, verdict — render with {!Fairness.Report.render}. *)
