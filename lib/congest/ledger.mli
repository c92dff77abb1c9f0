(** Round ledger: the round cost of one algorithm run.

    The engine counts the simulated rounds: a ledger carried in a run's
    {!Sim.env} gains every run's executed rounds from the engine itself
    ({!Sim.run_flat}, also on a {!Sim.Round_limit} abort), so no
    algorithm sums them by hand.  What an algorithm writes is its
    {e charges}: a step the paper performs via a cited black box, or
    states only as a bound, is charged that bound under a label that
    cites it (see DESIGN.md).  Experiments report both totals, so the
    reader can see how much of a bound was measured and how much was
    charged. *)

type t

val create : unit -> t

val add_run : t -> int -> unit
(** Add one simulated run's executed rounds.  The engine's hook: only
    {!Sim} calls it. *)

val charge : t -> string -> int -> unit
(** [charge t label rounds] records a named analytical charge.  The label
    says what is charged and cites the bound. *)

val simulated : t -> int
val charged : t -> int
val total : t -> int

val charges : t -> (string * int) list
(** The charges, in the order they were made. *)

val merge_into : dst:t -> t -> unit
(** Add [t]'s simulated rounds to [dst] and append its charges.  Pooled
    rand trials each own a ledger; they merge in trial order. *)

val pp : Format.formatter -> t -> unit
(** The totals, then one line per charge. *)
