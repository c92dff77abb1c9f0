(** dsf-lint: AST-level invariant checks for the contracts that keep this
    repository honest — determinism, domain-safety, and CONGEST accounting
    discipline (see the "Static analysis" section of HACKING.md).

    The checker parses [.ml] sources with the installed compiler's own
    frontend (compiler-libs) and walks the Parsetree with an
    {!Ast_iterator}, so rules see exactly what the compiler sees; no
    typing is performed, which keeps the pass fast and total (any file
    that compiles can be linted).

    {2 Rules}

    - [global-state] — toplevel mutable bindings ([ref], [Hashtbl.create],
      [Buffer.create], [Atomic.make], [Mutex.create], array literals, ...)
      in [lib/]: the exact hazard the domain-safety contract forbids.
    - [sim-globals] — uses of the process-wide
      [Sim.use_reference_engine] shim outside the differential-test
      allowlist.
    - [nondet] — nondeterminism sources: [Random.self_init], the global
      [Random.*] API (the seeded [Random.State] / [Dsf_util.Rng] paths are
      fine), wall-clock reads in [lib/] or [bin/] (allowed in [bench/]),
      and [Domain.self] used as data in [lib/].
    - [congest-discipline] — message traffic bypassing the engine's
      accounted send path: invoking a protocol's [fp_init], [fp_step] (or
      a list-style [step]) field directly, or mutating inbox/outbox
      structures, outside [lib/congest/sim.ml].
    - [catch-all] — [try ... with _ ->] handlers that can silently swallow
      [Pool.Nested_use] or [Sim.Round_limit].
    - [unsafe-array] — bounds-unchecked accessors ([Array.unsafe_get],
      [Bytes.unsafe_set], ...): allowed only behind an explicit bounds
      check, marked site-by-site with [[@lint.allow "unsafe-array"]] (the
      flat engine's inbox accessors are the canonical example).
    - [central-oracle] — the centralized shortest-path queries of
      [Dsf_graph.Paths] ([parameters], the [diameter_*] projections,
      [shortest_path_diameter], [eccentricity_unweighted], [all_pairs],
      [dijkstra], [dijkstra_hops], [shortest_path], [bfs], [bfs_multi])
      under [lib/congest], [lib/embed], [lib/core], [lib/baseline] and in
      [bin/dsf_cli.ml].  The algorithms read n, D, WD and s only as their
      simulated runs computed them ([Dsf_congest.Params.estimate]).  The
      allowlist: the files [lib/core/moat_common.ml] (the centralized
      Algorithms 1 and 2) and [lib/baseline/steiner_tree.ml] (the
      centralized KMB baseline); and, by inline allow with a reason,
      [Reduced_solver]'s charged central solve, [Le_list.verify_against],
      the message width of [Steiner_tree_distributed], and dsf_cli's
      [params] command and [solve --record] log metadata.

    The typed rules ([domain-race], [congest-width], [env-dropped],
    [poly-compare]) live in
    {!Typed_lint} and run over [.cmt] artifacts via [lint.exe --typed].

    {2 Suppression}

    A finding is silenced by an attribute naming the rule id:
    [[@@lint.allow "rule-id"]] on a toplevel binding,
    [[@lint.allow "rule-id"]] on an expression, or a floating
    [[@@@lint.allow "rule-id"]] for the rest of the enclosing module.
    Several ids may be given space-separated; an empty payload allows
    every rule.  Grandfathered findings can instead live in a checked-in
    baseline file (see {!Baseline}). *)

type zone = Lib | Bin | Bench | Test | Other

val zone_of_path : string -> zone
(** Classifies a '/'-separated path by its first component; zones decide
    which rules apply where. *)

val normalize : string -> string
(** Strips leading [./] and [../] segments so zone and allowlist lookups
    see repo-relative paths regardless of the scan's working directory. *)

val allow_ids : Parsetree.attributes -> string list
(** Rule ids named by [[@lint.allow "..."]] attributes; ["*"] for an
    empty or malformed payload (fail open).  Shared with the typed pass
    ({!Typed_lint}) — Typedtree attributes are Parsetree attributes. *)

type rule = {
  id : string;  (** the id used by suppressions and reports *)
  synopsis : string;  (** one-line description of what it flags *)
  rationale : string;  (** the repo contract the rule enforces *)
}

val rules : rule list
(** The rule catalogue, in report order. *)

val check_string : file:string -> string -> (Finding.t list, string) result
(** Lints one compilation unit given as source text; [file] supplies the
    reported path and the zone.  [Error] carries a rendered parse error. *)

val check_file : string -> (Finding.t list, string) result
(** [check_string] over the file's contents. *)

val scan : roots:string list -> Finding.t list * string list
(** Walks each root (a directory or a single [.ml] file), linting every
    [.ml] underneath — skipping [_build]-style and dot directories — and
    returns all findings (sorted) plus any per-file errors. *)

module Baseline : sig
  (** Grandfathered findings.  An entry matches on (file, rule, message) —
      deliberately not the line number, so unrelated edits above a
      baselined site do not invalidate the baseline. *)

  type entry = { bfile : string; brule : string; bmessage : string }

  val load : string -> entry list
  (** Missing file = empty baseline. *)

  val apply : entry list -> Finding.t list -> Finding.t list * int * entry list
  (** [apply entries findings] is [(kept, suppressed_count, stale)]:
      findings not covered by the baseline, how many were, and the
      entries that matched nothing (stale — candidates for removal). *)

  val save : string -> Finding.t list -> unit
  (** Writes a baseline covering exactly [findings]. *)
end
