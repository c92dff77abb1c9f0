(* NEGATIVE FIXTURE — the central-oracle lint rule.  The rule covers the
   simulator libraries, the baselines and dsf_cli, so test_lint lints
   this source as if it were a lib/core unit and pins exactly the one
   flagged site below; the allowed site must stay quiet.  Do not "fix"
   it and do not link it outside the test binary. *)

(* Flagged: an algorithm sizing a structure by the exact weighted
   diameter, which no CONGEST node knows. *)
let levels g = Dsf_util.Intmath.ceil_log2 (Dsf_graph.Paths.diameter_weighted g)

(* Quiet: a deliberately central site, allowed with its reason (a
   flight log's metadata records the exact triple). *)
let log_metadata g =
  Dsf_graph.Paths.parameters g [@lint.allow "central-oracle"]
