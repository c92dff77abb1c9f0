(** dsf-lint's typed analysis layer: rules that need resolved names,
    binder identity, and types, driven by compiler-produced [.cmt] files
    ({!Cmt_format} + {!Tast_iterator}) instead of the Parsetree.

    {2 Rules}

    - [domain-race] — a per-compilation-unit escape/ownership analysis
      over every [Sim.flat_protocol] record: [fp_step] / [fp_init] bodies
      may mutate only state reached from their own arguments (the step's
      view, state, inbox, and emit), plus the one sanctioned idiom of a
      captured per-node slot indexed by the step's own [view.node].
      Flagged: writes to captured toplevel/shared mutable values,
      cross-node indexing into captured containers, closures that smuggle
      shared state into the step, and references to unit-local helper
      functions that (transitively) mutate their free variables.
    - [congest-width] — every [Dsf_util.Pack.layout] must provably fit
      the 62-bit packed word: each field width must be a compile-time
      constant or derived from [Pack.width_of_max] / [Bitsize.*]
      (O(log n) by construction), and the constant portion (plus one bit
      per variable field) must not exceed 62.  [fp_msg_bits] bodies
      declaring a constant or literal bit count above 62 are flagged too.
    - [env-dropped] — an application that omits an optional
      [?env:Sim.env] argument while a variable of type [Sim.env] is bound
      by an enclosing function parameter, [let] or [match] case: the
      run would silently fall back to [Sim.default_env] (lossless,
      uninstrumented) instead of inheriting the caller's telemetry and
      network.  Toplevel values
      such as [Sim.default_env] do not put an env in scope, and an
      explicit [?env:None] is not flagged.
    - [poly-compare] — in [lib/congest], [lib/embed] and [lib/core] (the
      simulator's engine, embeddings and algorithms): an application or
      first-class use ([List.sort compare], [~cmp:compare]) of Stdlib's
      [compare], [=], [<>], [<], [>], [<=] or [>=] whose operand type,
      after [Ctype.expand_head], is a type variable, tuple, record, list,
      option or array.  There ocamlopt leaves the generic C primitive
      ([caml_compare], [caml_lessthan], ...) where an [Int.compare] chain
      or an [int] annotation compiles inline.  Stdlib's [min] and [max]
      are flagged at every type: they are functions, not primitives, so
      even at [int] they call [caml_greaterequal]; [Int.min] and
      [Int.max] compile inline.
      [x = C] and [x <> C] against a constant constructor [C] are
      integer tests and are not flagged.  The full typing environment
      is rebuilt from the [.cmi] files on the unit's recorded load path.

    Suppression uses the same [[@lint.allow "rule-id"]] attributes as the
    Parsetree pass (they survive into the Typedtree).

    {2 Honesty}

    The interprocedural part is per compilation unit: cross-module calls
    ([M.f]) are assumed pure.  Mutation detection covers the stdlib's
    in-place primitives; a same-unit helper that mutates its free
    variables taints every step that references it, transitively. *)

val rules : Lint.rule list
(** The typed rule catalogue, in report order. *)

val analyze_structure : file:string -> Typedtree.structure -> Finding.t list
(** Runs every typed rule over one implementation's Typedtree; [file] is
    the unit's repo-relative source path, which decides the rules' scope
    ([poly-compare]) and is reported when a location carries no filename.
    Findings are sorted. *)

val check_cmt : ?file:string -> string -> (Finding.t list, string) result
(** Reads one [.cmt] and analyzes it as [file] (default: the source path
    recorded in the [.cmt]).  Non-implementation artifacts (interfaces,
    packs) yield [Ok []]; unreadable or version-skewed files, and
    environments that cannot be rebuilt from the unit's load path, yield
    [Error]. *)

val scan : roots:string list -> Finding.t list * string list
(** Walks each root (directory or single [.cmt]) collecting every [.cmt]
    underneath — including dot-directories, where dune keeps its [.objs]
    artifacts — and returns all findings (sorted, deduplicated) plus any
    per-file errors. *)
