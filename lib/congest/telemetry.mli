(** Span-based phase profiler, round-level engine metrics, and trace sinks.

    The observability layer for the CONGEST stack.  A {!t} collects three
    coordinated views of a run:

    - a {b span tree} — [span t "voronoi" (fun () -> ...)] opens a nested
      phase; simulator costs (every run whose {!Sim.env} carries this
      telemetry) and ledger charges ({!Sim.charge}) recorded while the
      thunk runs are attributed to the innermost open span.  Same-named siblings merge
      into one aggregated node (its [count] tracks occurrences);
    - an {b event log} — one record per span occurrence, replayed by the
      JSONL and Chrome [trace_event] sinks;
    - a {b metrics registry} — deterministic counters/histograms of the
      engine's per-round series ({!Dsf_util.Metrics}).

    Determinism contract: with the default wall clock, only [wall_ns] /
    event timestamps are nondeterministic — every round/message/bit
    number is exact.  Injecting [?clock] (tests use a constant or a
    counter) makes the whole structure deterministic.  Telemetry is
    per-run state, never global; pooled fan-outs {!fork} one child per
    trial {e sequentially before} the fan-out and {!merge_into} the
    parent in trial order afterwards, which is bit-identical to the
    single-domain run for any [~jobs] (same discipline as per-trial
    ledgers and RNG splits). *)

type span = {
  name : string;
  mutable count : int;  (** occurrences merged into this node *)
  mutable wall_ns : int64;
  mutable rounds : int;  (** self (exclusive) — engine-measured *)
  mutable messages : int;
  mutable bits : int;
  mutable max_edge_round_bits : int;
  mutable budget_violations : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable retransmissions : int;
  mutable ledger_charged : int;  (** self — {!Ledger.charge}d rounds *)
  mutable children : span list;  (** first-opened first *)
}

type t

val now_ns : unit -> int64
(** Monotonic-enough wall clock in nanoseconds.  This is the one
    sanctioned wall-clock read inside [lib/] — dsf-lint's [nondet] rule
    forbids [Unix.gettimeofday]/[Sys.time] everywhere else so that all
    timing flows through telemetry (and stays injectable). *)

val create : ?clock:(unit -> int64) -> ?recorder:Recorder.t -> unit -> t
(** [?clock] defaults to {!now_ns}.  Tests inject a constant (domain-safe
    across pool fan-outs) or a counter clock for golden output.
    [?recorder] attaches a flight recorder: {!span} emits
    [Span_open]/[Span_close] cross-link events into it, every run whose
    {!Sim.env} carries this telemetry writes its events there, and
    {!Fault.sim_run} logs a hardened run's recovery summary there.
    A recorder is single-writer state, so {!fork} children write their
    own and {!merge_into} appends them to it. *)

val recorder : t -> Recorder.t option
(** The attached flight recorder, if any. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a child span of the current one (opening it if
    this name is new at this level), attributing engine and ledger costs
    recorded inside.  Exception-safe: the span closes on raise. *)

val span_opt : t option -> string -> (unit -> 'a) -> 'a
(** [span] when telemetry is on; just the thunk when [None].  The
    one-branch form instrumented call-sites use so the off path stays
    zero-cost. *)

val root : t -> span
val root_spans : t -> span list

val inclusive : span -> span
(** The span's costs summed over its whole subtree (maximum for
    [max_edge_round_bits]), as a childless copy. *)

val find : t -> string list -> span option
(** Look up a span by path from the root, e.g.
    [find t ["det_dsf"; "phase"; "region_bf"]]. *)

val metrics : t -> Dsf_util.Metrics.t

val charge : t -> int -> unit
(** Credit charged rounds to the innermost open span's [ledger_charged]
    (what {!Sim.charge} calls beside {!Ledger.charge}). *)

val sim_round : t -> stepped:int -> delivered:int -> bits:int -> unit
(** Engine hook, fired once per simulated round: nodes stepped (active-set
    size), messages delivered, bits sent this round.  Feeds the [sim/*]
    histograms and the [sim/rounds] counter. *)

val sim_run :
  t ->
  rounds:int ->
  messages:int ->
  bits:int ->
  max_edge_round_bits:int ->
  budget_violations:int ->
  dropped:int ->
  duplicated:int ->
  retransmissions:int ->
  unit
(** Engine hook, fired once at the end (or abort) of every engine run:
    credits the run's stats to the innermost open span. *)

val fork : t -> t
(** Fresh child telemetry for one pooled trial: empty tree/events/
    registry, shared clock/epoch, next thread id, and — when the parent
    carries a flight recorder — a fresh recorder of its own
    ([Recorder.create ~now:0 ()]).  Call sequentially {e before} the
    fan-out — the ids come from a shared counter. *)

val merge_into : dst:t -> t -> unit
(** Graft a fork's spans under [dst]'s current span (merging same-named
    nodes), append its events, add its metrics, and append its flight
    log to [dst]'s ({!Recorder.merge_into}).  Call in trial order after
    the fan-out. *)

(** {2 Sinks} *)

val pp : Format.formatter -> t -> unit
(** Console tree (inclusive rollups) followed by the metrics registry. *)

val to_jsonl_string : t -> string
(** One JSON object per line: a [meta] header, per-occurrence [span]
    events, flattened per-path [profile] rows, then [counter] /
    [histogram] metric rows. *)

val to_chrome_string : t -> string
(** Chrome [trace_event] JSON (complete ["ph": "X"] events, µs
    timestamps) loadable in Perfetto / [chrome://tracing]; pool trials
    appear as separate threads. *)

type sink_format = Console | Jsonl | Chrome

val sink_format_of_string : string -> (sink_format, string) result
(** Accepts ["console"], ["jsonl"], ["chrome"]. *)

val sink_format_for : ?format:string -> string -> (sink_format, string) result
(** The format of a trace written to a path: [format] (a
    [--trace-format] value) through {!sink_format_of_string} when given,
    else inferred from the path's extension: [.json] is Chrome,
    [.jsonl] JSONL, anything else (stdout ["-"] included) the console
    tree. *)

val write_file : t -> format:sink_format -> string -> unit
(** Write the chosen rendering to a file (["-"] = stdout). *)
