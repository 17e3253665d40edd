(** The two contract-signing protocols of the paper's introduction.

    Both compute {!Fair_mpc.Func.contract}: each party's input models its
    locally signed contract half, and the (global) output is the doubly
    signed contract.

    {!pi1} (Π1): the parties exchange commitments to their signed halves;
    then p1 opens to p2, then p2 opens to p1.  A corrupted p2 can always
    withhold the last opening after learning p1's half — the best attacker
    gets γ10 outright.

    {!pi2} (Π2): after the commitment exchange the parties run Blum coin
    tossing (commit–exchange–open) to decide who opens first.  The binding
    commitments leave a rushing adversary only the abort option, so it ends
    up second — able to provoke E10 — with probability exactly 1/2, and the
    best attacker gets (γ10 + γ11)/2: Π2 is "twice as fair" as Π1. *)

module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary

val func : Fair_mpc.Func.t
(** {!Fair_mpc.Func.contract}. *)

val pi1 : Protocol.t
val pi2 : Protocol.t

val zoo : Adversary.t list
(** Strategies relevant to the two protocols: corrupting either side and
    aborting at each round, greedy, plus baselines. *)
