(** Flight recorder: a compact binary causal event log of everything a
    simulated run does, and the query layer that answers "why" on top of
    it.

    {2 What gets recorded}

    The engines ({!Sim.run}, {!Sim.run_reference}, {!Sim.run_flat}) append
    one event per observable action into the log:

    - [Round r] — one per executed round, carrying the run-local round
      number (a run's rounds restart at 0, so a [Round 0] marks a new
      run; the inspector assigns each round a monotone {e global} index);
    - [Step v] — node [v] consumed a non-empty inbox this round.  This is
      the {e sanctioned state-write stamp}: it is emitted at exactly the
      site where the flat engine's ownership sanitizer stamps
      [written.(v) <- round], so every recorded state change is one the
      sanitizer would bless.  Steps with an empty inbox are causally
      inert under the wake contract and are not recorded — a [--why]
      backtrace answers for the last {e mail-consuming} step at or before
      the queried round;
    - [Send {src; dst; bits; fate}] — one per send, in the global send
      order both engines share (sender ascending, outbox order
      within a sender; the flat engine's barrier merge restores exactly
      this order for any [jobs]).  [fate] is the number of copies the
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
      ({!Fault.run_hardened} / [sim_run ?chaos]): retransmissions,
      checkpoint restores, checkpoint bits.

    {2 Determinism}

    Events from a domain-partitioned {!Sim.run_flat} are staged in
    per-domain buffers ({!buf}) and flushed at the round barrier in
    domain = node order, exactly like observer calls — the serialized log
    is byte-identical for any [jobs], and identical to
    {!Sim.run_reference}'s log on the same protocol.  The only nondeterministic datum
    is the capture timestamp taken at {!create} (this module is on
    dsf-lint's wall-clock allowlist for exactly that read); tests inject
    [~now:0] for byte-stable comparisons.

    Recorder-off is the default everywhere and costs the engines one
    branch per action — no allocation, which the bench GC gates pin. *)

type t
(** A live recorder: master event log, interned span names, metadata. *)

type buf
(** A per-domain staging buffer.  Owned by exactly one domain between
    barriers; the coordinator {!flush}es it into the master log. *)

val create : ?now:int -> ?meta:(string * int) list -> unit -> t
(** Fresh recorder.  [now] is the capture timestamp in Unix seconds
    (default: read from the wall clock — the one sanctioned read in this
    module); it lands in the metadata as ["captured_unix_s"].  [meta]
    seeds further metadata entries (values must be non-negative). *)

val meta_add : t -> string -> int -> unit
(** Append a metadata entry (e.g. instance parameters [n], [D], [s],
    [t]).  Raises [Invalid_argument] on a negative value — the binary
    format stores unsigned varints. *)

val meta_find : t -> string -> int option

val buf_make : unit -> buf

(** {2 Event appenders}

    The [ev_*] functions stage into a domain-owned {!buf}; [round],
    [span_open]/[span_close], and [recovery] append straight to the
    master log and are coordinator-only. *)

val ev_step : buf -> int -> unit
val ev_send : buf -> src:int -> dst:int -> bits:int -> fate:int -> unit
val ev_down : buf -> int -> unit
val ev_restart : buf -> int -> unit

val round : t -> int -> unit
(** Append a [Round] marker (run-local round number) to the master log.
    The engines call this at the round barrier, {e before} flushing the
    round's domain buffers. *)

val flush : t -> buf -> unit
(** Append a domain buffer's staged events to the master log and reset
    it.  Called at the barrier in domain = node order. *)

val span_open : t -> string -> unit
val span_close : t -> string -> unit
val recovery :
  t -> retransmissions:int -> restores:int -> checkpoint_bits:int -> unit

val event_count : t -> int
(** Events in the master log (staged-but-unflushed events not counted). *)

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

val pp_event : Format.formatter -> event -> unit

val tail : t -> int -> event list
(** The last [k] events of the master log, oldest first — what
    {!Trace.pp_postmortem} appends to a {!Sim.Round_limit} dump. *)

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

val node_depth : analysis -> int -> int
(** Causal depth of a node's final state (0 = never consumed mail). *)

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
    carries [s] (shortest-path diameter), [t] (terminals), [n] and [D]. *)

val pp_hot_edges : ?limit:int -> Format.formatter -> analysis -> unit
(** Directed edges ranked by causal load (total bits, descending; ties on
    ascending (src, dst)), with message counts and the deepest chain that
    crossed each edge.  Supersedes [Trace.hottest_edges] — same ranking
    discipline, but computed offline from a log instead of a live tap. *)
