(** Fixed-size domain pool for embarrassingly parallel trial fan-out.

    The repository's wall-clock cost is dominated by *independent trials*:
    the Theorem 5.2 repetitions, the experiment sweeps over seeds and
    sizes, and the benchmark suites.  This module runs such fan-outs on a
    small pool of OCaml 5 domains (stdlib [Domain] + [Mutex]/[Condition],
    no external dependencies).  Worker domains are spawned lazily on first
    use, capped at {!hard_cap}, and kept alive for the whole process —
    idle workers block on a condition variable and cost nothing.

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
(** Upper bound on pool parallelism (caller + spawned workers); [jobs]
    beyond it still works, the extra chunks just queue. *)

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
    can neither wedge the pool (chunk completion is counted in a
    [Fun.protect] finalizer, so the caller is always woken) nor shrink it
    (worker domains survive any exception escaping a batch and return to
    waiting for the next one).

    [jobs <= 1] (or arrays of length <= 1) short-circuits to a plain
    sequential [Array.map] on the calling domain: no pool interaction, no
    {!Nested_use} check. *)
