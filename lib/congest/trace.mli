(** Per-run communication profiles.

    A trace records, for everything simulated into it, the total messages
    and bits per (src, dst) directed edge and overall — useful for
    congestion analysis (which edges are hot?), for the lower-bound
    experiments, and for the round-profile ablations.

    Fill a trace with {!create} + {!observer}, passing the observer to
    the runs being measured through their run environment
    ([{ Sim.default_env with observer = Some (observer t) }]) or the
    solver entry points' [?observer]. *)

type t

val create : unit -> t
(** A fresh, empty trace. *)

val observer : t -> Sim.observer
(** The accumulating tap for a trace: put it in a {!Sim.env} or pass
    [~observer:(observer t)] to a solver entry point.  Per-run and domain-safe — each
    concurrent trial can own its own trace. *)

val messages : t -> int
val bits : t -> int

val hottest_edges : t -> int -> ((int * int) * int) list
(** The [n] directed edges carrying the most bits, descending; ties
    break on ascending (src, dst) so the ranking is deterministic. *)

val bits_between : t -> src:int -> dst:int -> int
(** Bits sent from [src] to [dst] (one direction). *)

val pp_postmortem : ?env:Sim.env -> Format.formatter -> Sim.abort -> unit
(** Full dump of a {!Sim.Round_limit} post-mortem: the abort header,
    per-sender message totals over the retained window (the eternal
    retransmitter tops the list), then the raw round-by-round traffic,
    oldest round first.  Complements the compact {!Sim.pp_abort}.
    [env] — the environment the aborted run used — appends the last 64
    events of its telemetry's flight recorder, if one is attached (steps, sends with fates, crash
    windows, span boundaries) as a causal tail after the traffic dump. *)
