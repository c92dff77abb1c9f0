(* NEGATIVE FIXTURE — deliberately dropped run environments.
   The typed env-dropped rule must flag the two functions below whose
   simulated run omits ?env while a Sim.env is in scope (test_lint scans
   this library's .cmt and pins exactly these two findings), and must
   stay quiet on the four that thread the environment, have none in
   scope, drop it explicitly, or carry a suppression.  Do not "fix" it
   and do not link it outside the test binary. *)

module Sim = Dsf_congest.Sim
module Bfs = Dsf_congest.Bfs

(* Flagged: the span is attributed, but the BFS inside it runs on
   Sim.default_env — no telemetry, lossless. *)
let forgets ?(env = Sim.default_env) g =
  Sim.span env "forgets" (fun () -> Bfs.build g ~root:0)

(* Flagged: a labelled (non-optional) env parameter is in scope too. *)
let forgets_labelled ~(env : Sim.env) g =
  Sim.span env "forgets_labelled" (fun () -> Bfs.build g ~root:0)

(* Quiet: the environment is threaded. *)
let threads ?(env = Sim.default_env) g = Bfs.build ~env g ~root:0

(* Quiet: no environment in scope (an entry point would build one here). *)
let no_env g = Bfs.build g ~root:0

(* Quiet: an explicit [?env:None] is a visible, deliberate choice. *)
let explicit ?(env = Sim.default_env) g =
  Sim.span env "explicit" (fun () -> Bfs.build ?env:None g ~root:0)

(* Quiet: suppressed at the call site. *)
let allowed ?(env = Sim.default_env) g =
  Sim.span env "allowed" (fun () ->
      (Bfs.build g ~root:0 [@lint.allow "env-dropped"]))
