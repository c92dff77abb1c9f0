(** Unified front end over every Steiner Forest algorithm in the
    repository.  A downstream user picks an {!algorithm} and gets back a
    uniform {!report} (solution, weight, rounds, optional optimality
    certificate) for either input convention — input components (DSF-IC)
    or connection requests (DSF-CR, transformed via Lemma 2.3 first, with
    the transform's rounds included in the report). *)

type algorithm =
  | Det  (** Section 4.1: deterministic, factor 2, O(ks + t) rounds *)
  | Det_sublinear of { eps_num : int; eps_den : int }
      (** Section 4.2: deterministic, factor 2 + ε, O~(sk + σ) rounds *)
  | Rand of { repetitions : int; seed : int }
      (** Section 5: randomized, O(log n) w.h.p., O~(k + min(s,√n) + D) *)
  | Khan_baseline of { repetitions : int; seed : int }
      (** prior art [14]: randomized, O(log n), O~(sk) rounds *)
  | Centralized_moat
      (** Algorithm 1 run centrally — the reference, no round accounting *)

val name : algorithm -> string

type report = {
  algorithm : string;
  solution : bool array;
  weight : int;
  feasible : bool;
  rounds_simulated : int;
  rounds_charged : int;
  dual_lower_bound : float option;
      (** Σ act·µ when the algorithm certifies itself (moat growing) *)
  ledger : Dsf_congest.Ledger.t option;
}

val solve_ic :
  ?jobs:int ->
  ?observer:Dsf_congest.Sim.observer ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?chaos:Dsf_congest.Fault.chaos ->
  algorithm ->
  Dsf_graph.Instance.ic ->
  report
(** [jobs] (default 1) parallelizes the trial fan-out of algorithms that
    have one ({!algorithm.Rand}'s repetitions) on the {!Dsf_util.Pool},
    and partitions {!algorithm.Det}'s simulated runs across that many
    domains; results are bit-identical for every [jobs] value.

    [chaos] runs {!algorithm.Det}'s simulated subroutines hardened with
    checkpointed crash recovery under the given chaos plan (see
    {!Dsf_congest.Fault.sim_run}); the report's solution, weight, and
    dual are bit-identical to the fault-free run.  Other algorithms
    reject it with [Invalid_argument].

    [observer] taps every simulated run of the chosen algorithm.
    [telemetry] profiles it: the distributed algorithms open their own
    phase spans (see each module's docs); the centralized reference and
    the Khan baseline are wrapped in a single [centralized_moat] /
    [khan_baseline] span. *)

val solve_cr :
  ?jobs:int ->
  ?observer:Dsf_congest.Sim.observer ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?chaos:Dsf_congest.Fault.chaos ->
  algorithm ->
  Dsf_graph.Instance.cr ->
  report
(** Applies the distributed Lemma 2.3 transform first; its rounds are
    added to the report (and its ledger entry when a ledger exists).
    Under [telemetry] the transform shows up as a [cr_to_ic] span. *)

val compare_all :
  ?jobs:int ->
  ?observer:Dsf_congest.Sim.observer ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?algorithms:algorithm list ->
  Dsf_graph.Instance.ic ->
  report list
(** Run several algorithms on one instance (default: Det, Det_sublinear
    ε=1/2, Rand, Khan) and return their reports, best weight first. *)

(**/**)

val khan_hook :
  (repetitions:int -> rng:Dsf_util.Rng.t -> Dsf_graph.Instance.ic ->
   bool array * int * Dsf_congest.Ledger.t)
  ref
(** Injection point for the Khan et al. baseline (set by [Dsf_baseline];
    avoids a dependency cycle).  Using {!Khan_baseline} requires linking
    and referencing [dsf_baseline]. *)
