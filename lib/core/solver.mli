(** The one front end over every Steiner Forest algorithm in the
    repository: [dsf_cli solve] and [compare], the examples and the tests
    all dispatch through it.  A caller picks an {!algorithm} and gets back
    a uniform {!report} (solution, weight, round ledger, optional
    optimality certificate) for either input convention — input
    components (DSF-IC) or connection requests (DSF-CR, transformed via
    Lemma 2.3 first, with the transform's rounds in the report's ledger). *)

type algorithm =
  | Det  (** Section 4.1: deterministic, factor 2, O(ks + t) rounds *)
  | Det_sublinear of { eps_num : int; eps_den : int }
      (** Section 4.2: deterministic, factor 2 + ε, O~(sk + σ) rounds *)
  | Rand of { repetitions : int; rng : Dsf_util.Rng.t }
      (** Section 5: randomized, O(log n) w.h.p., O~(k + min(s,√n) + D).
          The algorithm only splits [rng], so solving the same value twice
          gives the same report. *)
  | Khan_baseline of { repetitions : int; rng : Dsf_util.Rng.t }
      (** prior art [14]: randomized, O(log n), O~(sk) rounds; [rng] as
          for [Rand] *)
  | Centralized_moat
      (** Algorithm 1 run centrally — the reference, no round accounting *)

val name : algorithm -> string

type report = {
  algorithm : string;
  solution : bool array;
  weight : int;
  feasible : bool;
  ledger : Dsf_congest.Ledger.t option;
      (** the run's rounds, simulated and charged; [None] for the
          centralized reference, which has no round accounting *)
  dual_lower_bound : float option;
      (** Σ act·µ when the algorithm certifies itself (moat growing) *)
}

val solve_ic :
  ?jobs:int ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?chaos:Dsf_congest.Fault.plan ->
  algorithm ->
  Dsf_graph.Instance.ic ->
  report
(** No algorithm reads the exact [(D, WD, s)]: each reads n, s, WD and D
    only as bounds its own simulated runs computed (footnote 2, see
    {!Dsf_congest.Params.estimate}), so no solve runs the centralized
    all-sources sweep ({!Dsf_graph.Paths.parameters}).

    [jobs] (default 1) splits {!algorithm.Rand}'s trial fan-out over
    {!Dsf_util.Pool} domains; it is the only part of a solve it affects.
    Results are bit-identical for every [jobs] value.

    [chaos] runs {!algorithm.Det}'s simulated subroutines hardened with
    checkpointed crash recovery under the given chaos plan (see
    {!Dsf_congest.Fault.sim_run}); the report's solution, weight, and
    dual are bit-identical to the fault-free run.  Other algorithms
    reject it with [Invalid_argument].

    [telemetry] sees every simulated run of the chosen algorithm (and so
    does a flight recorder riding on it): each entry point builds one
    {!Dsf_congest.Sim.env} from these arguments, which all its
    subroutines inherit.  [telemetry] profiles the run: the distributed
    algorithms open their own phase spans (see each module's docs); the
    centralized reference is wrapped in a single [centralized_moat]
    span. *)

val solve_cr :
  ?jobs:int ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?chaos:Dsf_congest.Fault.plan ->
  algorithm ->
  Dsf_graph.Instance.cr ->
  report
(** Applies the distributed Lemma 2.3 transform first, under the same
    [telemetry] and [chaos]; the report's ledger holds the transform's
    rounds and then the algorithm's ({!Centralized_moat}'s stays [None]).
    Under [telemetry] the transform shows up as a [cr_to_ic] span. *)

type input =
  | Ic of Dsf_graph.Instance.ic  (** input components (DSF-IC) *)
  | Cr of Dsf_graph.Instance.cr  (** connection requests (DSF-CR) *)

val solve :
  ?jobs:int ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?chaos:Dsf_congest.Fault.plan ->
  algorithm ->
  input ->
  report
(** {!solve_ic} or {!solve_cr}, by the input's convention. *)

val compare_all :
  ?jobs:int ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?algorithms:algorithm list ->
  input ->
  report list
(** Run several algorithms on one input (default: Det, Det_sublinear
    ε=1/2, Rand, Khan) and return their reports, best weight first, each
    as {!solve} reports it.  On connection requests the transform runs
    once (one [cr_to_ic] span) and every report's ledger holds its
    rounds. *)
