(** The verdict rule: does a measured number meet the paper's value "up to
    a negligible term"?  A check reads that term as the tolerance its
    {!evidence} fixes, plus a slack of 1e-9 for rounding on the closed-form
    side.  Every registry check, certificate verdict and fairness relation
    takes its tolerance here.  Each form keeps the float order its site
    always used: results print tolerances with [%.17g], so reassociating
    one moves bytes. *)

type kind = [ `Equals | `At_most | `At_least ]

type evidence =
  | Estimate of float
      (** one estimate's standard error σ̂ (a paired gap's, or a worst-case
          [0.5 /. sqrt n]): [3.0 *. σ̂] *)
  | Ratio of { std_err : float; floor : float }
      (** a ratio's delta-method σ̂: [Float.max floor (3.0 *. σ̂)] *)
  | Sum of float list  (** a sum's σ̂s, added: [3.0 *. Σσ̂] *)
  | Sum_quadrature of float list  (** independent σ̂s: [3.0 *. sqrt Σσ̂²] *)
  | Proportion of int
      (** a frequency over n trials at the worst-case σ:
          [3.0 *. 0.5 /. sqrt n], not always the float
          [Estimate (0.5 /. sqrt n)] gives *)
  | Stated of float  (** a slack the claim states *)
  | Exact  (** a deterministic fact: 0 *)

val tolerance : evidence -> float
(** Before the 1e-9 slack. *)

type t = {
  label : string;
  measured : float;
  expected : float;
  tolerance : float;  (** [tolerance evidence +. 1e-9] *)
  kind : kind;
  ok : bool;
}

val make : label:string -> measured:float -> expected:float -> kind -> evidence -> t
(** [ok] is [abs_float (measured -. expected) <= tol], [measured <=
    expected +. tol] or [measured >= expected -. tol], by [kind]. *)

val holds : kind -> evidence -> measured:float -> expected:float -> bool
(** [make]'s [ok], without the record. *)

val within : evidence -> measured:float -> bound:float -> bool
(** [measured <= bound +. tolerance evidence +. 1e-9], added left to
    right (the certificate's order; [`At_most] adds
    [bound +. (tolerance +. 1e-9)]). *)

val within_bound : Montecarlo.estimate -> bound:float -> bool
(** A certificate's verdict: [within (Estimate std_err) ~measured:utility]. *)

val attains_bound : Montecarlo.estimate -> bound:float -> bool
(** [utility >= bound -. 3.0 *. std_err -. 1e-9], left to right. *)
