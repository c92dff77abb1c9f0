(** Domain fan-out for embarrassingly parallel work.

    The repository's wall-clock cost is dominated by *independent trials*:
    the Theorem 5.2 repetitions, the experiment sweeps over seeds and
    sizes, the benchmark suites, and the all-sources (D, WD, s) sweep of
    [Dsf_graph.Paths.parameters].  This module runs such fan-outs on
    OCaml 5 domains (stdlib [Domain] and [Atomic], no external
    dependencies).  Each parallel region spawns its helper domains, at
    most {!hard_cap} - 1 of them, and joins them before it returns.  No
    domain outlives its region because an idle one is not free: every
    OCaml 5 minor collection is a stop-the-world rendezvous of all running
    domains, so a parked worker kept alive for the whole process makes
    every later minor GC wait on it, which measurably slows the det solve
    that follows a pooled (D, WD, s) sweep (EXPERIMENTS.md).  A region
    pays instead for its spawns and joins, and for the fresh minor heap
    each helper allocates into.

    The pool is a *harness-level* facility: a task must be a pure function
    of its input (see HACKING.md, "Domain-safety contract").  In
    particular, tasks must not flip {!Dsf_congest.Sim}'s one global
    shim, [use_reference_engine] — pass per-run parameters in a
    [Sim.env] instead — and any randomness must come from an {!Rng.t}
    split deterministically from the task index *before* the fan-out, so
    results are bit-identical regardless of [jobs]. *)

exception Nested_use
(** Raised by {!map_chunked} when a parallel region is already active —
    tasks must not start a second parallel fan-out (with [jobs > 1]) from
    inside the pool.  Nested calls with [jobs = 1] are fine: they
    degenerate to [Array.map]. *)

val hard_cap : int
(** Upper bound on a region's parallelism (caller + spawned helpers);
    [jobs] beyond it still works, the extra tasks just queue. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped at {!hard_cap} — the
    default for [--jobs] style flags. *)

val map_chunked : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_chunked ~jobs f arr] is [Array.map f arr] computed by up to
    [jobs] domains (the calling domain participates).  Tasks are pulled
    one index at a time from a shared counter, so uneven task costs
    balance automatically; results land at their input's index, so the
    output ordering is deterministic and independent of [jobs].

    If one or more tasks raise, every task still runs to completion and
    the exception of the *smallest failing index* is re-raised (with its
    backtrace) — deterministic regardless of scheduling.  A raising task
    never wedges the region: it is recorded like a result, and the helper
    domain goes on pulling tasks until none are left.  The next region
    spawns fresh helpers.

    [jobs <= 1] (or arrays of length <= 1) short-circuits to a plain
    sequential [Array.map] on the calling domain: no domain spawned, no
    {!Nested_use} check. *)
