(** Flight recorder: a compact binary causal event log of everything a
    simulated run does, and the query layer that answers "why" on top of
    it.

    {2 What gets recorded}

    The engines ({!Sim.run_flat}, {!Sim.run_reference}) append
    one event per observable action into the log:

    - [Round r] — one per executed round, carrying the run-local round
      number (a run's rounds restart at 0, so a [Round 0] marks a new
      run; the inspector assigns each round a monotone {e global} index);
    - [Step v] — node [v] consumed a non-empty inbox this round.  This is
      the {e sanctioned state-write stamp}: it is emitted at exactly the
      site where the flat engine's node-locality sanitizer stamps
      [written.(v) <- round], so every recorded state change is one the
      sanitizer would bless.  Steps with an empty inbox are causally
      inert under the wake contract and are not recorded — a [--why]
      backtrace answers for the last {e mail-consuming} step at or before
      the queried round;
    - [Send {src; dst; bits; fate}] — one per send, in the global send
      order both engines share (sender ascending, outbox order
      within a sender).  [fate] is the number of copies the
      fault layer delivered: 0 = dropped in flight, 1 = normal,
      [k > 1] = replicated;
    - [Down v] / [Restart v] — the fault layer's crash window: [Down]
      every round the node is down (its pending mail is lost), [Restart]
      on the first round back up (the crash-restart state write — the
      other sanitizer-sanctioned write site);
    - [Span_open name] / [Span_close name] — telemetry span boundaries
      ({!Telemetry.span} cross-links them when a recorder is attached),
      so causal depth can be attributed per phase;
    - [Recovery {...}] — a hardened run's recovery summary
      ({!Fault.sim_run} under a [Sim.Chaos] network): retransmissions,
      checkpoint restores, checkpoint bits.

    {2 Determinism}

    Each engine stages a round's events in one buffer ({!buf}) and
    appends it after the round marker at the barrier.  {!Sim.run_flat}
    runs its crash pre-pass before any step, so a round's [Down] /
    [Restart] events precede its steps and sends, and the serialized log
    is byte-identical to {!Sim.run_reference}'s log on the same
    protocol.  The only nondeterministic datum
    is the capture timestamp taken at {!create} (this module is on
    dsf-lint's wall-clock allowlist for exactly that read); tests inject
    [~now:0] for byte-stable comparisons.

    Pooled trials (the repetitions of [Rand_dsf.run]) are recorded too:
    {!Telemetry.fork} gives each trial its own recorder, since a
    recorder has a single writer, and {!Telemetry.merge_into} appends
    each trial's events to the parent log ({!merge_into}) in trial
    order.  The log is therefore byte-identical for any [--jobs].

    Recorder-off is the default everywhere and costs the engines one
    branch per action — no allocation, which the bench GC gates pin. *)

type t
(** A live recorder: master event log, interned span names, metadata. *)

type buf
(** A staging buffer for one round's events; the engine {!append}s it
    to the master log at the barrier.  The engines keep one per round of
    {!Sim.postmortem_window}, so the same buffers also hold the sends a
    {!Sim.Round_limit} post-mortem reports. *)

val create : ?now:int -> unit -> t
(** Fresh recorder.  [now] is the capture timestamp in Unix seconds
    (default: read from the wall clock — the one sanctioned read in this
    module); it lands in the metadata as ["captured_unix_s"], the first
    entry.  Add further entries with {!meta_add}. *)

val meta_add : t -> string -> int -> unit
(** Append a metadata entry (e.g. instance parameters [n], [D], [s],
    [t]).  Raises [Invalid_argument] on a negative value — the binary
    format stores unsigned varints. *)

val buf_make : unit -> buf

val buf_clear : buf -> unit
(** Empty a buffer, keeping its capacity. *)

val buf_sends : buf -> (int * int * int) list
(** The [(src, dst, bits)] of the buffer's [Send] records, in staging
    order, whatever their fate. *)

(** {2 Event appenders}

    The [ev_*] functions stage into a {!buf}; [round],
    [span_open]/[span_close], and [recovery] append straight to the
    master log. *)

val ev_step : buf -> int -> unit
val ev_send : buf -> src:int -> dst:int -> bits:int -> fate:int -> unit
val ev_down : buf -> int -> unit
val ev_restart : buf -> int -> unit

val round : t -> int -> unit
(** Append a [Round] marker (run-local round number) to the master log.
    The engines call this at the round barrier, {e before} flushing the
    round's buffer. *)

val append : t -> buf -> unit
(** Append a buffer's staged events to the master log.  The buffer keeps
    them until it is cleared ({!buf_clear}).  Called at the round
    barrier. *)

val span_open : t -> string -> unit
val span_close : t -> string -> unit
val recovery :
  t -> retransmissions:int -> restores:int -> checkpoint_bits:int -> unit

val event_count : t -> int
(** Events in the master log (staged-but-unflushed events not counted). *)

val merge_into : dst:t -> t -> unit
(** Append the second recorder's master log to [dst]'s, re-interning its
    span names into [dst]'s table; its metadata is dropped.
    {!Telemetry.merge_into} calls this once per pooled trial, in trial
    order. *)

(** {2 Decoded events} *)

type event =
  | Round of int  (** run-local round number *)
  | Step of int
  | Send of { src : int; dst : int; bits : int; fate : int }
  | Down of int
  | Restart of int
  | Span_open of string
  | Span_close of string
  | Recovery of { retransmissions : int; restores : int; checkpoint_bits : int }

(** {2 The [dsf-flightlog/1] binary format}

    A magic line, metadata (length-prefixed keys, unsigned-LEB128
    values), the interned span-name table, then the event stream as
    unsigned-LEB128 varints (every event field is non-negative by
    construction). *)

val to_string : t -> string
val write_file : t -> string -> unit

type log
(** A parsed flightlog. *)

val parse : string -> (log, string) result
val read_file : string -> (log, string) result
(** [parse] on a file's contents.  An error message (unreadable file or
    malformed log) starts with ["PATH: "] and names the path exactly
    once. *)

val to_log : t -> log
(** A live recorder's log, copied in memory: equal to
    [parse (to_string t)] without the serialize-and-parse round trip. *)

val log_meta : log -> (string * int) list
val log_events : log -> event list
val log_event_count : log -> int

(** {2 Causal analysis}

    [analyze] replays the log once, reconstructing inboxes exactly as
    the engines built them (sends of round [g] with [fate >= 1] are
    delivered at [g + 1] of the same run; a [Down] destroys the node's
    pending mail; run boundaries clear mail in flight) and maintaining
    per-node causal depth: a step that consumes mail extends the longest
    message chain among its deliveries by one hop per send.  All queries
    are deterministic — they depend only on the event stream. *)

type analysis

val analyze : log -> analysis

val max_depth : analysis -> int
(** Longest causal message chain in the whole log — the {e achieved}
    analogue of the paper's round lower bound. *)

val total_rounds : analysis -> int
(** Global rounds executed (summed across runs). *)

val run_count : analysis -> int

val pp_summary : Format.formatter -> analysis -> unit
(** Header: events, rounds, runs, spans, metadata, recovery totals. *)

val pp_why : node:int -> ?round:int -> Format.formatter -> analysis -> unit
(** Causal backtrace of node's state: its last mail-consuming step at or
    before [round] (default: end of log, in {e global} rounds), then the
    chain of messages/steps that produced it, back to an origin step that
    consumed no prior mail. *)

val pp_diff : r1:int -> r2:int -> Format.formatter -> analysis -> unit
(** Per-round traffic/state deltas between two global rounds. *)

val pp_critical_path : Format.formatter -> analysis -> unit
(** Longest causal chain whole-run and per telemetry span, printed next
    to the paper bound sqrt(min(s·t, n))·log2(n) + D when the metadata
    carries [s] (shortest-path diameter), [t] (terminals), [n] and [D].
    In a log with messages, spans that closed before the first one carry
    no chain and are left out; a log with no messages lists every span. *)

val pp_hot_edges : ?limit:int -> Format.formatter -> analysis -> unit
(** Directed edges ranked by causal load (total bits, descending; ties on
    ascending (src, dst)), with message counts and the deepest chain that
    crossed each edge.  This is the repository's per-edge traffic report:
    record a run (see {!Telemetry.create}'s [~recorder]), then
    [pp_hot_edges (analyze (to_log r))]. *)
