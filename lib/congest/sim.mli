(** Synchronous CONGEST(log n) round simulator (the model of Section 2).

    A protocol is one record of callbacks, a {!flat_protocol}: [fp_init]
    builds each node's local state from its local {!view} (its id, its
    incident edges, and [n] — everything the model grants initially), and
    [fp_step] consumes the inbox delivered at the start of a round and
    sends messages to neighbors through an [emit] callback.  The
    simulator executes rounds until the protocol is quiescent (every node
    reports done and no message is in flight) or [max_rounds] is
    reached.

    Message sizes are accounted in bits via [fp_msg_bits]; the simulator
    records the maximum bits sent over any (edge, direction) in any single
    round so experiments can verify the O(log n) congestion discipline.
    Sending two messages to the same neighbor in one round is allowed but
    both count against that edge-round's bit total.

    {2 Engines}

    There is one production engine, {!run_flat}, and one oracle,
    {!run_reference}.  Both run the same protocol record and step a run's
    nodes one after another on the calling domain.  Every primitive
    ({!Bfs}, {!Tree_ops}, {!Pipeline}, ...) has one implementation, a
    native {!flat_protocol}, and runs it on every network: {!run_flat} on
    a lossless or faulty one, {!run_reference} under
    {!use_reference_engine}, and {!Fault.sim_run}'s hardening wrapper
    (itself a {!flat_protocol}) under a [Chaos] network.  There are no
    adapters: the type system admits no other protocol shape.

    {2 Sparse scheduling}

    The paper's protocols are round-efficient precisely because most nodes
    are silent in most rounds (Bellman-Ford wavefronts, pipelined upcasts),
    so one rule schedules every run of the production engine: {b in
    round [r] a node is stepped iff it is up and either its inbox is
    non-empty or it does not report [fp_is_done]} (every node is up on a
    lossless network; see the fault semantics below for down nodes).  Every protocol
    promises in return that stepping a done node with an empty inbox is
    a no-op: the step returns a structurally equal state and emits
    nothing.  Under that contract {!run_flat} and {!run_reference}, which
    steps every node every round, produce identical stats, flight logs,
    and final states — the property suite [test_sim_equiv] checks this
    differentially on randomized graphs and protocols, and re-steps the
    final states of the ports with an empty inbox to check the contract
    on the step itself.  A protocol that acts by the clock rather than by
    its mail stays not-done until its last scheduled action: {!Coloring}'s
    stages report done only after their last round, and
    {!Fault.sim_run}'s hardening wrapper, whose retransmit timers and Fin
    markers march every physical round, is never done (its run ends by
    the wrapper's quiescence halt).  Bar those two and
    {!Tree_ops.upcast_sequential}'s departure schedule, the converse
    holds too: a not-done node stepped with an empty inbox emits or
    changes its state, so a node waiting on mail reports done.

    [fp_is_done] must be a pure function of the state: it is re-evaluated
    only when a step (or a crash-restart) changes the state.

    Composition convention: the paper's algorithms are towers of subroutines,
    each with its own round bound (Bellman-Ford phases, pipelined upcasts,
    BFS-tree broadcasts).  We simulate each subroutine for real, and the
    engine counts the cost: every run adds its executed rounds to the
    {!Ledger} carried in its {!env}, and its full {!stats} to the env's
    telemetry, so an algorithm's simulated total is exactly the rounds
    its runs took.  The runners here and {!Fault.sim_run} are the only
    functions that return a run's {!stats}; a primitive built on them
    returns only its result, and its cost is read from the env (or, for
    one call, through {!measure}).  Steps the paper itself performs as
    "locally compute from globally known data" cost zero rounds, and the
    few steps the paper delegates to a cited black box are charged their
    stated bound as a named ledger entry ({!charge}; see DESIGN.md). *)

type view = {
  node : int;
  n : int;  (** number of nodes in the network *)
  nbrs : (int * int * int) array;
      (** (neighbor id, edge weight, edge id), as in {!Dsf_graph.Graph.adj} *)
}

type stats = {
  rounds : int;  (** rounds actually executed *)
  messages : int;
  total_bits : int;
  max_edge_round_bits : int;
      (** max bits over a single (edge, direction) in one round *)
  budget_violations : int;
      (** edge-rounds exceeding {!Dsf_util.Bitsize.congest_budget} *)
  dropped : int;
      (** messages destroyed by fault injection (at-send drops plus mail
          arriving at a crashed node); always 0 on a lossless network *)
  duplicated : int;
      (** extra copies delivered by fault injection; 0 when lossless *)
  retransmissions : int;
      (** resends performed by a hardened protocol: the engine reports 0,
          and {!Fault.sim_run} on a [Chaos] network folds the per-node
          resend counters in after the run. *)
}

(** {2 Fault injection}

    A [faults] record is a set of callbacks the production engine
    consults while it runs — the simulator stays agnostic of how fault decisions
    are made ({!Fault} builds deterministic seeded records from
    declarative plans).  Semantics:

    - the sender is always charged for a send (messages, bits, recorded
      [Send] event, edge budget) — the network misbehaves {e after} the
      send;
    - [on_send] returning [Drop] destroys the message in flight
      ([stats.dropped]); [Replicate k] delivers [k] copies
      ([stats.duplicated] counts the [k - 1] extras);
    - a node with [down ~round ~node = true] is not stepped that round
      and mail arriving at it is destroyed (counted in [dropped]);
      messages it sent earlier still arrive elsewhere;
    - on the first round a node is back up, its state is reset to
      [fp_init view] — crash-and-restart with total state loss as far as the
      engine is concerned ({!Fault.sim_run} with a {!Fault.recoverable}
      contract piggybacks on exactly this hook: its hardened [fp_init]
      consults the node's stable storage and restores the checkpoint
      instead).

    {!run_reference} takes no faults, so {!run_flat} keeps a run under a
    [Faults] network on the flat engine even while
    {!use_reference_engine} is set. *)

type fault_action = Deliver | Drop | Replicate of int

type faults = {
  on_send : round:int -> src:int -> dst:int -> fault_action;
  down : round:int -> node:int -> bool;
}

(** {2 Structured round-limit aborts}

    When a run exceeds [max_rounds] it raises {!Round_limit} carrying a
    post-mortem: the stats at the moment of the abort plus the last
    {!postmortem_window} rounds of raw per-message traffic, oldest round
    first — enough to see who was still talking (or silent) when the
    protocol span out.  {!pp_abort} renders it and is registered with
    [Printexc], so an uncaught abort prints the same post-mortem.

    The traffic comes from the engine's recorder staging buffers, one
    per round of the window: a recording run stages every round, and a
    run that is not recording stages its sends from round
    [max_rounds - postmortem_window] on.  A recorded run's [recent]
    therefore equals the [Send] events of its log's last
    {!postmortem_window} rounds. *)

type abort = {
  at_round : int;  (** the exceeded round limit *)
  snapshot : stats;  (** stats at the abort *)
  recent : (int * (int * int * int) list) list;
      (** (round, (src, dst, bits) in send order), ascending rounds *)
}

exception Round_limit of abort

val postmortem_window : int
(** Number of trailing rounds of traffic kept for {!abort.recent} (8). *)

val pp_abort : Format.formatter -> abort -> unit
(** The post-mortem of an abort (also what the registered [Printexc]
    printer emits): the stats at the abort, the budget breaches if any,
    the senders of the whole window ranked by message count (descending,
    ties on ascending node id), then one line per retained round with its
    totals and its busiest senders.  Rankings are capped at six senders;
    the raw messages stay in {!abort.recent}. *)

(** {2 Run environment}

    Every simulating function — the three runners below, {!Fault.sim_run},
    and each primitive built on them ({!Bfs.build}, {!Tree_ops},
    {!Bellman_ford.run}, ...) — takes one optional [?env] (default
    {!default_env}) and hands it unchanged to every run it makes.  The
    environment says how a run is instrumented and what network it runs
    on; it never changes what a lossless run computes.  It is also where
    a run's cost goes: the primitives return no stats, so the ledger
    and the telemetry are the one cost channel.

    - [telemetry] attributes each run's final stats to the innermost
      open {!Telemetry} span (also on a {!Round_limit} abort), streams
      the round-level series (active-set size, messages delivered, bits
      per round) into its metrics registry, and carries
      the flight recorder, if one was attached with
      [Telemetry.create ~recorder] ({!Recorder} documents its events
      and their order).  The recorder is the per-message tap: its
      [Send] events carry every message of every run, in send order,
      whatever its fate (e.g. the bits across the Alice/Bob cut in the
      Section 3 lower-bound experiments, [Gadgets.cut_bits]).
      Each primitive opens its own span (["bfs"], ["upcast"], ...) once,
      around whichever leg it runs.  Without telemetry the engine pays
      one predictable branch per action and allocates nothing (the bench
      GC gate pins this).
    - [ledger] gains every run's executed rounds ({!Ledger.add_run}),
      once per run, also when the run aborts with {!Round_limit}: the
      engine is the one counter of simulated rounds.  {!charge} writes
      the named charges to it.
    - [network] is [Lossless], [Faults f] (inject the callback record
      [f], see the fault semantics above; {!Fault.instantiate} builds one
      from a plan), or [Chaos p] (run the protocol hardened, with a
      reliable link layer and a synchronizer, under the plan [p]).  Only
      {!Fault.sim_run} accepts [Chaos]; the three runners raise
      [Invalid_argument] on it.
      A record whose callbacks never fire leaves the run bit-identical
      to the lossless one.
    - [sanitize] arms {!run_flat}'s dynamic node-locality sanitizer.

    Every run steps its nodes on the calling domain.  Parallelism lives
    one level up, over independent runs (randomized trials, benchmark
    sweeps), through {!Dsf_util.Pool}.

    {b Domain-safety contract.}  The simulator holds no per-run mutable
    state that outlives a run, so any number of simulations may run
    concurrently on separate domains (the {!Dsf_util.Pool} trial engine
    does exactly this), {e provided} each concurrent run gets its own
    instrumentation through its env: a per-trial {!Telemetry.fork}, which
    also gives the trial its own flight recorder when the parent has one
    (a recorder is single-writer state), and a per-trial ledger, merged
    back in trial order ({!Ledger.merge_into}).  The one global shim, {!use_reference_engine},
    mutates process-wide state and is kept only for single-domain callers
    (the differential suites and the engine microbenchmarks); never touch
    it while a parallel fan-out is in flight. *)

type plan = {
  seed : int;
  drop : float;  (** per-message drop probability, in [0, 1) *)
  duplicate : float;  (** per-message duplication probability, in [0, 1] *)
  link_down : (int * int * int * int) list;
      (** [(u, v, first, last)]: both directions of edge u-v drop
          everything in rounds [first..last] (inclusive) *)
  crashes : (int * int * int) list;
      (** [(node, crash, restart)]: the node is down in rounds
          [crash..restart-1]; on round [restart] it re-inits — from its
          checkpoint when the run is hardened with a
          {!Fault.recoverable} contract, from scratch otherwise *)
}
(** A pure, seeded fault plan.  {!Fault.plan} re-exports the type and
    adds the validating constructor. *)

type network = Lossless | Faults of faults | Chaos of plan

type env = {
  telemetry : Telemetry.t option;
  ledger : Ledger.t option;
  network : network;
  sanitize : bool;
}

val default_env : env
(** Lossless, no telemetry, no ledger.  [sanitize] is read
    once at module init from the [DSF_SANITIZE] environment variable
    ([1]/[true]/[on]); that is how ci.sh's sanitized smoke arms every run
    without touching call sites.  Build other envs by record update:
    [{ Sim.default_env with telemetry = Some t }]. *)

val span : env -> string -> (unit -> 'a) -> 'a
(** [Telemetry.span_opt env.telemetry]: the one span a primitive opens
    around its run. *)

val charge : env -> string -> int -> unit
(** [charge env label rounds] records a named analytical charge in
    [env.ledger] ({!Ledger.charge}) and credits it to the innermost open
    span of [env.telemetry] ({!Telemetry.charge}).  Each does nothing when
    absent. *)

val measure : ?env:env -> (env -> 'a) -> 'a * stats
(** [measure ~env f] runs [f] on [env] with a fresh constant-clock
    telemetry in place of [env.telemetry] (it carries [env]'s flight
    recorder, if any; network, ledger and sanitizer are kept) and
    returns [f]'s result with the summed stats of every run [f] made:
    rounds, messages, bits, drops and retransmissions add up, and
    [max_edge_round_bits] is the maximum over the runs.  This is how
    tests and benchmarks read the cost of a primitive, which returns
    only its result. *)

(** {2 The flat-core engine}

    The production engine is built on the {!Dsf_graph.Graph.csr} view:
    message traffic lives in {e arena} buffers (parallel [int array] /
    ['m array] pairs, grown from empty in every run and recycled by
    length reset), per-round per-(edge, direction) bit accounting is a flat
    array indexed by CSR position, and every run is scheduled from one
    incrementally-maintained sorted active list — the nodes the
    scheduling rule above steps — so an idle round costs O(active nodes),
    not O(n).  At each barrier the list becomes the stepped nodes that
    are still not done, merged with the mail recipients (by a sort and
    merge when the recipients are fewer than n / 8, by one ascending
    scan of all n otherwise); under a
    [Faults] network the crash pre-pass, which visits every node anyway,
    walks the list alongside and rebuilds it: down nodes leave it, and
    restarted nodes whose fresh state is not done join it.  For ['m = int] protocols written against
    the {!flat_protocol} interface the steady-state round loop allocates
    nothing (test_congest's "steady state allocates nothing" pins it).

    Nodes step in ascending order and sends are staged per destination,
    so each inbox receives its mail in the global send order of
    {!run_reference} (sender ascending, emit order within a sender).
    Delivery swaps the staging array with the (all empty) inbox array,
    once per round.

    An error raised by a step (e.g. a message to a non-neighbor)
    propagates out of the run, on both engines alike.  Recorder events
    of the failing round are staged until the barrier, which the error
    never reaches, so they are not emitted. *)

type 'm inbox
(** The mail delivered to a node this round, in arrival order: senders
    ascending, send order within a sender.  A read-only view into a
    recycled arena buffer: valid only during the [fp_step] call it was
    passed to. *)

val inbox_len : 'm inbox -> int
val inbox_src : 'm inbox -> int -> int
(** Sender of the [i]-th message; raises [Invalid_argument] out of range. *)

val inbox_msg : 'm inbox -> int -> 'm
(** Payload of the [i]-th message; raises [Invalid_argument] out of range. *)

val inbox_of_list : (int * 'm) list -> 'm inbox
(** A fresh inbox holding the [(sender, message)] list in list order.  It
    is how a step is fed mail that was not delivered by the engine's
    arena: {!run_reference}'s list delivery, and the inner step of
    {!Fault.sim_run}'s hardening wrapper. *)

type ('s, 'm) flat_protocol = {
  fp_init : view -> 's;
  fp_step :
    view -> round:int -> 's -> inbox:'m inbox -> emit:(dst:int -> 'm -> unit)
    -> 's;
      (** Reads mail through the zero-copy [inbox] view and sends by
          calling [emit] (one closure per run — no outbox list is ever
          built); returns the new state.  Messages emitted in round [r]
          arrive in round [r + 1], in emit order. *)
  fp_is_done : 's -> bool;
      (** Whether the node has nothing left to do without mail.  A done
          node with an empty inbox is not stepped (see "Sparse
          scheduling"), and a run is quiescent once every node is done and
          no message is in flight. *)
  fp_msg_bits : 'm -> int;
}
(** The one protocol type.  The typed lint rules [domain-race] and
    [congest-width] check every record literal of it. *)

type sanitizer_violation = {
  sv_kind : string;
      (** ["idle-state-write"] — a node's state changed in a round it was
          not stepped (another node's step wrote through an aliased
          state); ["emit-outside-step"] — an emit closure fired with no
          step in progress; ["arena-leak"] — mail staged outside the
          recipient list, checked at the barrier before delivery swaps
          the staging and inbox arrays (after the swap it would sit in
          the inbox of a node no step may read); ["undelivered-inbox"] —
          delivered mail never consumed by a step. *)
  sv_round : int;
  sv_node : int;
  sv_detail : string;  (** human-readable elaboration *)
}

exception Sanitizer_violation of sanitizer_violation
(** Raised by {!run_flat} with [env.sanitize] set when a flat protocol (or
    the engine itself) breaks the CONGEST node-locality contract — a
    step may touch only its own node's state — that the typed
    domain-race lint rule checks statically.  A [Printexc] printer is
    registered, so uncaught violations render the full record. *)

val run_flat :
  ?max_rounds:int ->
  ?halt:('s array -> bool) ->
  ?env:env ->
  Dsf_graph.Graph.t ->
  ('s, 'm) flat_protocol ->
  's array * stats
(** Runs a protocol to quiescence on the flat-core engine.  Default
    [max_rounds] is [10_000 + 200 * n]; raises {!Round_limit} if exceeded
    (a protocol bug — the abort carries a post-mortem, see {!abort}).
    Messages emitted in round [r] are delivered in round [r + 1].
    Stats, final states, flight logs and round counts are bit-identical
    (faults aside) to {!run_reference} — the
    differential suite enforces this with faults and telemetry both on
    and off.  While {!use_reference_engine} is set, a run on a
    [Lossless] network goes to {!run_reference} instead.

    [halt] is an omniscient early-termination predicate evaluated on the
    state vector after every round; when it fires the run stops immediately.
    It models a coordinator aborting a subroutine ("the root detects X and
    broadcasts stop"): the caller is responsible for charging the O(D)
    stop-broadcast to its round ledger.

    [env.sanitize] arms the dynamic node-locality sanitizer: node-state
    writes are stamped with their round, and any write to a node that
    was not stepped, escaped emit closure, or leaked arena slot aborts
    the run with {!Sanitizer_violation} (kinds above).  A [Lossless] run
    also counts steps that break the converse promise of "Sparse
    scheduling" into [env.telemetry]'s [sim/idle_steps].  Every
    check is read-only — private hash snapshots and write stamps — so a
    clean sanitized run is bit-identical to an unsanitized one (stats,
    states, flight log); it costs an O(n) structural-hash sweep per
    round. *)

val run_reference :
  ?max_rounds:int ->
  ?halt:('s array -> bool) ->
  ?env:env ->
  Dsf_graph.Graph.t ->
  ('s, 'm) flat_protocol ->
  's array * stats
(** The original (seed) simulator loop, kept as the semantic anchor: steps
    every node every round, done or not — so it agrees with {!run_flat}
    exactly when the protocol keeps the no-op contract of "Sparse
    scheduling" — delivers mail as
    per-node lists (each step reads its list through {!inbox_of_list}),
    and walks each step's sends in emit order after the step returns.
    Differential tests assert {!run_flat} matches it exactly; it is also
    the baseline leg of the [bench/main.exe -- micro] simulator
    benchmarks.  Not for production use — it pays O(n + m) per round
    regardless of activity.  It honours [env]'s telemetry (and so its
    recorder), ignores [sanitize], and raises [Invalid_argument] on any
    network but [Lossless]. *)

val use_reference_engine : bool ref
(** Global shim for test/benchmark instrumentation: while [true],
    {!run_flat} delegates fault-free runs to {!run_reference}.  It is
    read there and nowhere else, so every protocol runs the same code on
    the oracle loop.
    Lets the differential suite and the microbenchmarks drive whole
    algorithm entry points (e.g. {!Bellman_ford.sssp}) through the oracle
    without threading an engine parameter through every caller.  Never
    set this in library code; reset it with [Fun.protect]; single-domain
    use only (see the domain-safety contract). *)

val pp_stats : Format.formatter -> stats -> unit
