(** Deterministic fault injection and the hardened runner.

    This module answers "what happens when the CONGEST network misbehaves"
    in two pieces:

    - {b Plans}: a {!plan} is a pure, seeded description of faults —
      per-message drop/duplication probabilities, per-round link outages,
      node crash-and-restart windows.  {!instantiate} compiles a plan into
      the callback record {!Sim.faults} that a [Sim.Faults] network
      injects.  Decisions are a stateless PRF of
      [(seed, round, src, dst)], so a plan is bit-reproducible and
      independent of send order — the same plan on the same run always
      kills the same messages.

    - {b Hardening}: on a [Sim.Chaos plan] network, {!sim_run} wraps the
      protocol in a reliable link layer (per-neighbor sequence numbers,
      cumulative acks, go-back-N retransmission with a retransmit timeout
      of 3 rounds doubling up to a cap of 32, duplicate suppression) plus
      an alpha-synchronizer: a node executes its inner round [r] only
      after every neighbor has closed round [r] with a [Fin] marker, and
      the inner inbox is rebuilt exactly as the lossless engines deliver
      it (senders ascending, send order within a sender).  Consequently,
      under any {!maskable} plan the hardened run reaches the {e same
      final states} as the unhardened protocol on a lossless network —
      timing-sensitive protocols (e.g. {!Bfs}'s first-arrival parent
      choice) included.  The chaos suite ([test/test_chaos.ml]) enforces
      this differentially.

    {b What is maskable.}  Drops (probability < 1) and duplications are
    healed by retransmission and sequence numbers.  {e Finite} link-down
    windows are healed the same way: the backoff caps, so the sender
    keeps probing until the link comes back (an infinite outage is
    indistinguishable from a partitioned network and cannot be masked by
    anyone).  Crash-and-restart is masked {e iff} the protocol supplies a
    {!recoverable} contract: the wrapper then checkpoints the whole
    hardened state (inner state + link-layer windows) to per-node stable
    storage after every step, a restarted node resumes from its
    checkpoint instead of a fresh [init], and the go-back-N machinery
    retransmits from the last acknowledged sequence number on both sides
    of every incident link — a crash window thus degrades into a finite
    all-incident-links outage plus some lost in-flight packets, which the
    reliable layer already rides out.  {!maskable} classifies a plan
    accordingly.  Byzantine behavior (corrupted or forged messages) is
    outside the model entirely.

    {b Determinism argument.}  The inner execution is driven only by the
    per-link item streams, which sequence numbers make loss-, duplication-
    and reordering-proof; a restore replays the node from a
    stream-consistent prefix (the checkpoint is written after every step,
    i.e. between inner rounds).  Hence every node steps through exactly
    the lossless sequence of inner states, and the final inner states —
    and any halt predicate evaluated on them — are bit-identical to the
    fault-free run.  The end-to-end chaos differential ([det_dsf] under a
    seeded {!chaos_plan}, both engines) pins this.

    {b Scope of the guarantee.}  The inner protocol must (a) quiesce on a
    lossless network and (b) keep the no-op contract of {!Sim}'s one
    scheduling rule (stepping a done node with an empty inbox is a
    no-op), which every protocol must keep anyway.  It matters here
    because the wrapper's inner execution steps every node in every
    virtual round, done or not, as the reference loop does, while the
    lossless run it must reproduce skips those steps.  The wrapper itself reports no node done: its Fin markers and
    retransmit timers act every physical round, so every up node steps
    every round, and the run ends by the quiescence halt below.

    {b Termination.}  A hardened network never goes globally silent (Fin
    markers and timers keep marching), so {!sim_run} stops a hardened run
    by an omniscient virtual-quiescence halt: every inner state done, no
    unacked payload, no unconsumed payload.  That is the repo's usual
    omniscient-halt convention ({!Sim.run_flat}'s [?halt]); a real deployment
    would detect it with an O(D) termination-detection wave, which
    callers should charge to their ledger. *)

type plan = Sim.plan = {
  seed : int;
  drop : float;
  duplicate : float;
  link_down : (int * int * int * int) list;
  crashes : (int * int * int) list;
}
(** {!Sim.plan}, re-exported so plans read [Fault.plan ~drop ...]. *)

val empty : plan
(** No faults at all.  A run on [Sim.Faults (instantiate empty)] is
    bit-identical to the lossless run (the differential suite checks
    this). *)

val plan :
  ?drop:float ->
  ?duplicate:float ->
  ?link_down:(int * int * int * int) list ->
  ?crashes:(int * int * int) list ->
  seed:int ->
  unit ->
  plan
(** Validating constructor; all fault classes default to "off". *)

val is_empty : plan -> bool

val maskable : ?with_recovery:bool -> plan -> bool
(** The class of plans a hardened run fully masks: drops, duplications and
    finite link outages always; crash-and-restart additionally requires
    running with a {!recoverable} contract ([~with_recovery:true]).
    Every constructible plan is maskable with recovery (the {!plan}
    validator already forbids drop probability 1 and infinite windows). *)

val instantiate : plan -> Sim.faults
(** Compile the plan into the engine's callback record.  Decisions are
    stateless, so one record may serve any number of runs. *)

val chaos_plan : seed:int -> Dsf_graph.Graph.t -> plan
(** A ready-made maskable stress plan for [g], deterministic in [seed]:
    5% drops, 2% duplications, plus a few finite link-down windows on
    real edges and a few crash-and-restart windows, counts scaling gently
    with n.  Always satisfies [maskable ~with_recovery:true]; used by the
    CLI's [--chaos SEED], the chaos soak in [bin/ci.sh], and the
    end-to-end differential suites. *)

type 's recoverable = {
  snapshot : 's -> 's;
      (** Deep copy of the inner state — everything a restarted node needs
          to resume.  [Fun.id] iff the state is purely immutable; a state
          holding mutable structure (Hashtbl, Queue, arrays, union-find)
          must copy it, or later in-place mutation corrupts the stored
          image.  Must not swallow exceptions: a failing snapshot is a
          protocol bug, not a fault to mask (dsf-lint's catch-all rule
          applies). *)
  state_bits : 's -> int;
      (** Stable-storage footprint of the inner state, for checkpoint
          accounting only (never affects execution). *)
}
(** The crash-recovery contract of a protocol: what a hardened run needs
    to checkpoint it. *)

val immutable : unit -> 's recoverable
(** The contract for protocols whose per-node state is an immutable value:
    [snapshot] is [Fun.id] and [state_bits] one word (63).  Override a
    field by record update, e.g. a copying [snapshot] for a mutable
    state. *)

(** {2 Chaos runs: hardened drop-in for [Sim.run_flat]} *)

val sim_run :
  ?max_rounds:int ->
  ?halt:('s array -> bool) ->
  ?env:Sim.env ->
  ?recovery:'s recoverable ->
  Dsf_graph.Graph.t ->
  ('s, 'm) Sim.flat_protocol ->
  's array * Sim.stats
(** The one runner of every simulated primitive, and the hardened drop-in
    for {!Sim.run_flat}.  On a [Lossless] or [Faults] network it {e is}
    {!Sim.run_flat} (zero overhead on the fault-free path).  On a
    [Chaos plan] network it instantiates [plan], wraps [fp] in the
    hardening combinator (with [recovery] when given) — itself a
    {!Sim.flat_protocol} that steps [fp.fp_step] with an inbox built by
    {!Sim.inbox_of_list} and re-sends its emits in order, so a chaos run
    executes the same protocol code as a lossless one — runs it through
    {!Sim.run_flat}, and halts on virtual quiescence
    {e or} the caller's [halt] evaluated on the inner state
    vector each physical round, so an omniscient early stop (e.g.
    [Pipeline]'s [stop_at_root]) fires on exactly the same inner
    configuration as on the lossless run.  Final inner states are
    unwrapped, and [stats.retransmissions] is folded from the per-node
    counters.  The stats are the {e hardened} run's (packet traffic,
    drops, retransmissions); compare with the lossless run's stats to
    measure the overhead.

    [recovery] switches on checkpointed crash recovery: the hardened run
    writes a deep copy of each node's whole hardened state to its stable
    storage after every step, and a node the engine re-inits (crash
    restart) resumes from its checkpoint.  Without it a crash restarts
    the node from scratch, which is not maskable.

    A hardened run's recovery work is read from its telemetry.  Under
    [env.telemetry] the run lands in a ["hardened"] span, and the metrics
    registry gains the counters [fault/retransmissions] (packets),
    [fault/restores] (checkpoint restores, one per crash-restart
    survived), [fault/recovery_rounds] (physical rounds restarted nodes
    spent resynchronizing; they are part of the run's rounds already) and
    [fault/checkpoint_bits] (bits written to stable storage).  An
    attached flight recorder gets one [Recovery] summary event per
    hardened run with nonzero recovery work. *)
