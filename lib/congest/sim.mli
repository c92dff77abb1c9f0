(** Synchronous CONGEST(log n) round simulator (the model of Section 2).

    A protocol is a pair of callbacks: [init] builds each node's local state
    from its local {!view} (its id, its incident edges, and [n] — everything
    the model grants initially), and [step] consumes the inbox delivered at
    the start of a round and produces messages for neighbors.  The simulator
    executes rounds until the protocol is quiescent (every node reports done
    and no message is in flight) or [max_rounds] is reached.

    Message sizes are accounted in bits via [msg_bits]; the simulator records
    the maximum bits sent over any (edge, direction) in any single round so
    experiments can verify the O(log n) congestion discipline.  Sending two
    messages to the same neighbor in one round is allowed but both count
    against that edge-round's bit total.

    {2 Engines}

    There is one production engine, {!run_flat}, and one oracle,
    {!run_reference}.  {!run} is the list-protocol entry point: it adapts
    the protocol with {!flat_of_protocol} and runs it on {!run_flat}.
    Hot primitives ({!Bfs}, {!Bellman_ford}, {!Tree_ops}, ...) also ship a
    native {!flat_protocol} port, which they use unless a chaos plan asks
    for the hardened classic protocol or {!use_reference_engine} is set.
    The classic list protocols stay in the code for two reasons.  They
    are what {!run_reference} executes, and they are the input to
    {!Fault.harden}.

    {2 Sparse scheduling}

    The paper's protocols are round-efficient precisely because most nodes
    are silent in most rounds (Bellman-Ford wavefronts, pipelined upcasts),
    so the production engine only steps the nodes that can act: in round
    [r] a node is stepped iff its inbox is non-empty, it does not report
    [is_done], or its [wake] hook returns [true].  A protocol with
    [wake = None] is stepped every round — exactly the original
    simulator's schedule.  A protocol that declares a sparse [wake] (e.g.
    [Some never]) promises that stepping a done node with an empty inbox
    is a no-op: it returns a structurally equal state and an empty outbox.
    Under that contract, {!run} and {!run_reference} produce identical
    stats, observer traces, and final states — the property suite
    [test_sim_equiv] checks this differentially on randomized graphs and
    protocols.

    [is_done] and [wake] must be pure functions of the state (and view /
    round): [is_done] is re-evaluated only when a step changes the state.

    Composition convention: the paper's algorithms are towers of subroutines,
    each with its own round bound (Bellman-Ford phases, pipelined upcasts,
    BFS-tree broadcasts).  We simulate each subroutine for real and add up
    actual rounds in a {!Ledger}; steps the paper itself performs as "locally
    compute from globally known data" cost zero rounds, and the few steps the
    paper delegates to a cited black box are charged their stated bound as a
    named ledger entry (see DESIGN.md). *)

type view = {
  node : int;
  n : int;  (** number of nodes in the network *)
  nbrs : (int * int * int) array;
      (** (neighbor id, edge weight, edge id), as in {!Dsf_graph.Graph.adj} *)
}

type ('s, 'm) protocol = {
  init : view -> 's;
  step : view -> round:int -> 's -> inbox:(int * 'm) list -> 's * (int * 'm) list;
      (** [inbox] is the list of (sender, message) delivered this round;
          returns the new state and the outbox of (neighbor, message). *)
  is_done : 's -> bool;
  msg_bits : 'm -> int;
  wake : (view -> round:int -> 's -> bool) option;
      (** Scheduling hook. [None]: step the node every round (the default
          behavior protocols get if they have no sparse-activity story).
          [Some f]: the node is stepped in a round iff it received a message,
          is not [is_done], or [f] returns [true] — use [Some never] for
          purely message/progress-driven protocols, or a round predicate
          (e.g. [fun _ ~round _ -> round = 0]) for clock-driven kick-offs.
          Only consulted for nodes that are idle by the first two tests. *)
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
          arriving at a crashed node); always 0 without [?faults] *)
  duplicated : int;
      (** extra copies delivered by fault injection; 0 without [?faults] *)
  retransmissions : int;
      (** resends performed by a hardened protocol.  The engine itself
          only copies the faults record's counter (see below); the
          hardened runners ({!Fault.run_hardened}, {!Fault.sim_run}) fold
          the per-node resend counters into this field after the run —
          domain-safe at any [jobs].  0 without hardening. *)
}

(** {2 Fault injection}

    A [faults] record is a set of callbacks the production engine
    consults while it runs — the simulator stays agnostic of how fault decisions
    are made ({!Fault} builds deterministic seeded records from
    declarative plans).  Semantics:

    - the sender is always charged for a send (messages, bits, observer
      call, edge budget) — the network misbehaves {e after} the send;
    - [on_send] returning [Drop] destroys the message in flight
      ([stats.dropped]); [Replicate k] delivers [k] copies
      ([stats.duplicated] counts the [k - 1] extras);
    - a node with [down ~round ~node = true] is not stepped that round
      and mail arriving at it is destroyed (counted in [dropped]);
      messages it sent earlier still arrive elsewhere;
    - on the first round a node is back up, its state is reset to
      [init view] — crash-and-restart with total state loss as far as the
      engine is concerned ({!Fault.harden} with a {!Fault.recoverable}
      contract piggybacks on exactly this hook: its [init] consults the
      node's stable storage and restores the checkpoint instead);
    - [retransmissions] is reset to 0 at run start and copied into the
      final stats.  Nothing in this repo bumps it from inside [step] any
      more (a shared counter is not domain-safe at [jobs > 1]); the
      hardened runners account resends per node and patch the returned
      stats instead.

    {!run_reference} takes no faults, so {!run} keeps a run with
    [?faults] on the flat engine even while {!use_reference_engine} is
    set. *)

type fault_action = Deliver | Drop | Replicate of int

type faults = {
  on_send : round:int -> src:int -> dst:int -> fault_action;
  down : round:int -> node:int -> bool;
  retransmissions : int ref;
}

(** {2 Structured round-limit aborts}

    When a run exceeds [max_rounds] it raises {!Round_limit} carrying a
    post-mortem: the stats at the moment of the abort plus the last
    {!postmortem_window} rounds of raw per-message traffic, oldest round
    first — enough to see who was still talking (or silent) when the
    protocol span out.  A printer is registered with [Printexc], so an
    uncaught abort prints the summary; {!Trace.pp_postmortem} renders the
    full per-node breakdown. *)

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
(** Compact per-round summary of an abort (also what the registered
    [Printexc] printer emits). *)

val never : view -> round:int -> 's -> bool
(** [never] ignores its arguments and returns [false]: the canonical [wake]
    for protocols whose activity is entirely message- or progress-driven. *)

type observer = src:int -> dst:int -> bits:int -> unit
(** A message tap: called for every message a run sends, in send order.
    Pure measurement instrumentation (e.g. counting bits across the
    Alice/Bob cut in the Section 3 lower-bound experiments); it never
    affects execution.

    {2 Domain-safety contract}

    The simulator holds no per-run mutable state that outlives a run, so
    any number of simulations may run concurrently on separate domains
    (the {!Dsf_util.Pool} trial engine does exactly this) — {e provided}
    each run's instrumentation is passed through the per-run
    [?observer] / [?telemetry] / [?recorder] parameters.  The one global
    shim, {!use_reference_engine}, mutates process-wide state and is kept
    only for single-domain callers (the differential suites and the
    engine microbenchmarks); never touch it while a parallel fan-out is
    in flight. *)

(** {2 The flat-core engine}

    The production engine is built on the {!Dsf_graph.Graph.csr} view:
    message traffic lives in preallocated {e arena} buffers (parallel
    [int array] / ['m array] pairs grown once and recycled by length
    reset), per-round per-(edge, direction) bit accounting is a flat
    array indexed by CSR position, and a protocol whose [wake] is
    physically {!never} is scheduled from an incrementally-maintained
    sorted active list, so an idle round costs O(active nodes) instead of
    an O(n) criterion sweep.  For ['m = int] protocols written against
    the native {!flat_protocol} interface the steady-state round loop
    allocates nothing.

    A single run can additionally be partitioned across [jobs] domains of
    the {!Dsf_util.Pool}: each domain owns a contiguous ascending block
    of nodes, steps its block between two barriers per round, and stages
    its sends per destination; the coordinator merges staged mail, send
    logs (observer calls, post-mortem ring), counters, and bit accounting
    {e in domain = node order} at the barrier.  Because the merge order
    equals the global send order of the single-threaded engines, results
    are bit-identical for any [jobs] — the jobs-invariance property in
    [test_sim_equiv] pins this.  Caveat: [jobs > 1] must not be used
    from inside an existing pool fan-out (the per-round batch would raise
    {!Dsf_util.Pool.Nested_use}).  Hardened protocols are jobs-safe:
    resends are counted per node and folded into the stats after the run
    (see {!Fault.sim_run}), so the chaos differentials run at [jobs = 4]
    too.

    An error raised by a step (e.g. a message to a non-neighbor)
    propagates out of the run.  Observer calls, post-mortem traffic and
    recorder events of the failing round are not emitted: they are
    replayed at the barrier, which the error never reaches. *)

type 'm inbox
(** The mail delivered to a node this round, in arrival order (identical
    to the list {!run_reference} would hand [step]).  A read-only view
    into a recycled arena buffer: valid only during the [fp_step] call it
    was passed to. *)

val inbox_len : 'm inbox -> int
val inbox_src : 'm inbox -> int -> int
(** Sender of the [i]-th message; raises [Invalid_argument] out of range. *)

val inbox_msg : 'm inbox -> int -> 'm
(** Payload of the [i]-th message; raises [Invalid_argument] out of range. *)

val inbox_list : 'm inbox -> (int * 'm) list
(** The inbox as a [(sender, message)] list (allocates; the convenience
    bridge for incremental ports and {!flat_of_protocol}). *)

type ('s, 'm) flat_protocol = {
  fp_init : view -> 's;
  fp_step :
    view -> round:int -> 's -> inbox:'m inbox -> emit:(dst:int -> 'm -> unit)
    -> 's;
      (** Reads mail through the zero-copy [inbox] view and sends by
          calling [emit] (one closure per domain per run — no outbox list
          is ever built).  Same delivery semantics as {!protocol.step}:
          messages emitted in round [r] arrive in round [r + 1]. *)
  fp_is_done : 's -> bool;
  fp_msg_bits : 'm -> int;
  fp_wake : (view -> round:int -> 's -> bool) option;
      (** Same contract as {!protocol.wake}.  Pass [Some never] (that
          exact closure) to opt into the sparse active-list scheduler. *)
}

val flat_of_protocol : ('s, 'm) protocol -> ('s, 'm) flat_protocol
(** The adapter {!run} uses: runs a list-based protocol on the flat
    engine by materializing each inbox list and walking each outbox list.
    It allocates per active node, but still gains arena delivery and
    active-list scheduling. *)

type sanitizer_violation = {
  sv_kind : string;
      (** ["idle-state-write"] — a node's state changed in a round it was
          not stepped (cross-partition write through an aliased state);
          ["emit-outside-step"] — an emit closure fired with no step in
          progress on its domain; ["emit-foreign-node"] — an emit issued
          on behalf of a node owned by another domain; ["arena-leak"] —
          mail staged outside the recipient list (would silently vanish);
          ["undelivered-inbox"] — delivered mail never consumed by a
          step. *)
  sv_round : int;
  sv_node : int;
  sv_domain : int;  (** domain owning [sv_node]; [-1] if out of range *)
  sv_detail : string;  (** human-readable elaboration *)
}

exception Sanitizer_violation of sanitizer_violation
(** Raised by {!run_flat} with [~sanitize:true] when a flat protocol (or
    the engine itself) breaks the ownership contract the typed
    domain-race lint rule checks statically.  A [Printexc] printer is
    registered, so uncaught violations render the full record. *)

val run_flat :
  ?max_rounds:int ->
  ?halt:('s array -> bool) ->
  ?observer:observer ->
  ?faults:faults ->
  ?telemetry:Telemetry.t ->
  ?recorder:Recorder.t ->
  ?jobs:int ->
  ?sanitize:bool ->
  Dsf_graph.Graph.t ->
  ('s, 'm) flat_protocol ->
  's array * stats
(** Runs a native flat protocol on the flat-core engine ([jobs] defaults
    to 1; it is clamped to [1 .. n]).  Stats, final states, observer
    traces, round counts, telemetry series, fault semantics, and
    {!Round_limit} behavior are bit-identical to {!run} on the equivalent
    list protocol, and (faults aside) to {!run_reference} — the
    differential suite enforces this with faults and telemetry both on
    and off.

    [sanitize] arms the dynamic ownership sanitizer: node-state writes
    and arena slots are tagged with the owning domain and round, and any
    cross-partition write, escaped emit closure, or leaked arena slot
    aborts the run with {!Sanitizer_violation} (kinds above).  Every
    check is read-only — private hash snapshots and write stamps — so a
    clean sanitized run is bit-identical to an unsanitized one (stats,
    states, observer order); it costs an O(n) structural-hash sweep per
    round.  Defaults to the [DSF_SANITIZE] environment variable
    ([1]/[true]/[on], read once at module init), which is how ci.sh's
    sanitized end-to-end smoke arms it without touching call sites.

    [recorder] appends flight-recorder events (see {!Recorder}): a
    [Round] marker per executed round, [Step v] for every mail-consuming
    step, [Send] with the fault layer's verdict as its [fate], and
    [Down]/[Restart] for crash windows.  Events are staged in per-domain
    buffers and flushed at the barrier in domain = node order — crash
    events of the round first, then step/send events — so the serialized
    log is byte-identical for any [jobs] and identical to
    {!run_reference}'s log for the same protocol.  When absent, a
    recorder attached to [?telemetry] ([Telemetry.create ~recorder]) is
    used; with neither, the engine pays one predictable branch per action
    and allocates nothing (the bench GC gate pins the off path).  Events of a round
    that raises (protocol error, sanitizer violation) are never flushed —
    the log ends at the last completed round, like observer replay. *)

val run :
  ?max_rounds:int ->
  ?halt:('s array -> bool) ->
  ?observer:observer ->
  ?faults:faults ->
  ?telemetry:Telemetry.t ->
  ?jobs:int ->
  ?recorder:Recorder.t ->
  Dsf_graph.Graph.t ->
  ('s, 'm) protocol ->
  's array * stats
(** Runs a list protocol to quiescence: [run_flat ?jobs g
    (flat_of_protocol proto)], with the same arguments.  Default
    [max_rounds] is [10_000 + 200 * n]; raises {!Round_limit} if exceeded
    (a protocol bug — the abort carries a post-mortem, see {!abort}).
    Messages produced in round [r] are delivered in round [r + 1].

    [faults] switches on fault injection for this run (see the fault
    semantics above).  Omitting it — or passing a record whose callbacks
    never fire — leaves the run bit-identical to the fault-free one: the
    differential suite checks both.

    [halt] is an omniscient early-termination predicate evaluated on the
    state vector after every round; when it fires the run stops immediately.
    It models a coordinator aborting a subroutine ("the root detects X and
    broadcasts stop"): the caller is responsible for charging the O(D)
    stop-broadcast to its round ledger.

    [observer] taps this run's messages.  [jobs] partitions the run
    across pool domains (default 1).  While {!use_reference_engine} is
    set, a run without [faults] goes to {!run_reference} instead and
    [jobs] is ignored.

    [telemetry] attributes the run to the enclosing {!Telemetry} span
    (final stats via [Telemetry.sim_run], including on a {!Round_limit}
    abort) and streams the round-level series — active-set size, messages
    delivered, bits this round, wake-hook hits — into its metrics
    registry via [Telemetry.sim_round].  Purely observational: with
    [?telemetry] absent the engine pays a single extra branch per round
    and runs bit-identically (the differential suite checks this).

    [recorder] appends flight-recorder events for this run (see
    {!run_flat} for the event and determinism contract).  Defaults to the
    recorder attached to [?telemetry], if any. *)

val run_reference :
  ?max_rounds:int ->
  ?halt:('s array -> bool) ->
  ?observer:observer ->
  ?telemetry:Telemetry.t ->
  ?recorder:Recorder.t ->
  Dsf_graph.Graph.t ->
  ('s, 'm) protocol ->
  's array * stats
(** The original (seed) simulator loop, kept as the semantic anchor: steps
    every node every round and ignores [wake].  Differential tests assert
    {!run} and {!run_flat} match it exactly; it is also the baseline leg
    of the [bench/main.exe -- micro] simulator benchmarks.  Not for
    production use — it pays O(n + m) per round regardless of
    activity. *)

val use_reference_engine : bool ref
(** Global shim for test/benchmark instrumentation: while [true], {!run}
    delegates fault-free runs to {!run_reference}, and the ported
    primitives run their classic protocol instead of the native port (see
    {!native_ports}) — under a fault plan that classic protocol stays on
    the flat engine, which is how the differential suite compares native
    ports with classic protocols under faults.
    Lets the differential suite and the microbenchmarks drive whole
    algorithm entry points (e.g. {!Bellman_ford.sssp}) through the oracle
    without threading an engine parameter through every caller.  Never
    set this in library code; reset it with [Fun.protect]; single-domain
    use only (see the domain-safety contract). *)

val native_ports : unit -> bool
(** [false] while {!use_reference_engine} is set, [true] otherwise.  A
    ported primitive runs its native {!flat_protocol} iff this holds and
    it was given no chaos plan; otherwise it runs its classic protocol
    through {!run} (or {!Fault.sim_run}). *)

val pp_stats : Format.formatter -> stats -> unit
