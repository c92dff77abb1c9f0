(** Plain-text (de)serialization of graphs and instances, for the CLI and
    for sharing test cases.

    Format (line-oriented, [#] starts a comment):

    {v
    n 6
    edge 0 1 4        # endpoints and weight
    edge 1 2 1
    label 0 0         # node 0 carries input-component 0
    label 2 0
    request 3 5       # or connection requests (DSF-CR)
    v}

    A file with [label] lines parses as DSF-IC, one with [request] lines as
    DSF-CR; mixing both is an error. *)

type parsed =
  | Ic of Instance.ic
  | Cr of Instance.cr
  | Plain of Graph.t

exception Parse_error of int * string
(** 1-based line number and message.  Semantic errors carry the line of the
    directive that caused them: an invalid [edge] (self-loop, duplicate,
    endpoint out of range, non-positive weight), the [edge] line at which
    the total edge weight passes {!Graph.max_total_weight}, an
    out-of-range [label] or [request] node, a negative label, a second
    [label] for the same node,
    the first line that mixes [label] and [request] directives, a second
    [n] line, or the [n] line for a non-positive node count.  Line [0]
    means the whole file (no [n] line at all). *)

val parse_string : string -> parsed
val parse_file : string -> parsed

val print_ic : Format.formatter -> Instance.ic -> unit
val print_cr : Format.formatter -> Instance.cr -> unit
val print_graph : Format.formatter -> Graph.t -> unit

val roundtrip_ic : Instance.ic -> Instance.ic
(** [parse (print x)] — exposed for tests. *)

val parse_solution :
  Graph.t -> string -> (bool array, int * string) Stdlib.result
(** Parse a solution file: one selected edge per line as "u v" (order
    irrelevant, [#] comments allowed).  The error is the 1-based line
    number and message of the first malformed line or unknown edge. *)

val print_solution : Format.formatter -> Graph.t -> bool array -> unit
