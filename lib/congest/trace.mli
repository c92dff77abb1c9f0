(** Per-run communication profiles.

    A trace records, for everything simulated into it, the total messages
    and bits per (src, dst) directed edge and overall — useful for
    congestion analysis (which edges are hot?), for the lower-bound
    experiments, and for the round-profile ablations.

    Fill a trace with {!create} + {!observer}, passing the observer to
    the runs being measured through the per-run [?observer] parameter
    (every simulated entry point threads it). *)

type t

val create : unit -> t
(** A fresh, empty trace. *)

val observer : t -> Sim.observer
(** The accumulating tap for a trace: pass [~observer:(observer t)] to
    {!Sim.run} or any solver entry point.  Per-run and domain-safe — each
    concurrent trial can own its own trace. *)

val messages : t -> int
val bits : t -> int

val edge_bits : t -> (int * int, int) Hashtbl.t
(** Directed (src, dst) -> total bits. *)

val hottest_edges : t -> int -> ((int * int) * int) list
(** The [n] directed edges carrying the most bits, descending; ties
    break on ascending (src, dst) so the ranking is deterministic. *)

val bits_between : t -> src:int -> dst:int -> int
(** Bits sent from [src] to [dst] (one direction). *)

val pp_summary : Format.formatter -> t -> unit

val pp_postmortem : ?recorder:Recorder.t -> Format.formatter -> Sim.abort -> unit
(** Full dump of a {!Sim.Round_limit} post-mortem: the abort header,
    per-sender message totals over the retained window (the eternal
    retransmitter tops the list), then the raw round-by-round traffic,
    oldest round first.  Complements the compact {!Sim.pp_abort}.
    [?recorder] — the recorder the aborted run was writing, if any —
    appends the recorder's last 64 events (steps, sends with fates, crash
    windows, span boundaries) as a causal tail after the traffic dump. *)
