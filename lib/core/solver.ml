module Instance = Dsf_graph.Instance
module Ledger = Dsf_congest.Ledger

type algorithm =
  | Det
  | Det_sublinear of { eps_num : int; eps_den : int }
  | Rand of { repetitions : int; seed : int }
  | Khan_baseline of { repetitions : int; seed : int }
  | Centralized_moat

let name = function
  | Det -> "det (Thm 4.17)"
  | Det_sublinear { eps_num; eps_den } ->
      Printf.sprintf "det_sublinear eps=%d/%d (Cor 4.21)" eps_num eps_den
  | Rand { repetitions; _ } ->
      Printf.sprintf "rand x%d (Thm 5.2)" repetitions
  | Khan_baseline { repetitions; _ } ->
      Printf.sprintf "khan_etal x%d [14]" repetitions
  | Centralized_moat -> "centralized moat (Alg 1)"

type report = {
  algorithm : string;
  solution : bool array;
  weight : int;
  feasible : bool;
  rounds_simulated : int;
  rounds_charged : int;
  dual_lower_bound : float option;
  ledger : Ledger.t option;
}

let of_ledger algo inst solution weight dual ledger =
  {
    algorithm = name algo;
    solution;
    weight;
    feasible = Instance.is_feasible inst solution;
    rounds_simulated = (match ledger with Some l -> Ledger.simulated l | None -> 0);
    rounds_charged = (match ledger with Some l -> Ledger.charged l | None -> 0);
    dual_lower_bound = dual;
    ledger;
  }

(* The Khan baseline lives in dsf_baseline, which depends on dsf_core; to
   keep the front end in core without a cycle, callers inject it.  The
   default hook raises; dsf_baseline installs the real one at load time
   (see Dsf_baseline.Khan_etal).  Process-global by design: written once
   during linking, read-only afterwards — domain-safe in practice. *)
let khan_hook :
    (repetitions:int -> rng:Dsf_util.Rng.t -> Instance.ic ->
     bool array * int * Ledger.t)
    ref =
  ref (fun ~repetitions:_ ~rng:_ _ ->
      failwith
        "Solver: Khan baseline requested but dsf_baseline is not linked; \
         depend on dsf_baseline or avoid Khan_baseline")
[@@lint.allow "global-state"]

let solve_ic ?(jobs = 1) ?observer ?telemetry ?chaos algo inst =
  let tspan name f = Dsf_congest.Telemetry.span_opt telemetry name f in
  (match chaos, algo with
  | Some _, (Det_sublinear _ | Rand _ | Khan_baseline _ | Centralized_moat) ->
      invalid_arg "Solver.solve_ic: ?chaos is only supported for Det"
  | _ -> ());
  match algo with
  | Det ->
      let r = Det_dsf.run ?observer ?telemetry ?chaos ~jobs inst in
      of_ledger algo inst r.Det_dsf.solution r.Det_dsf.weight
        (Some (Frac.to_float r.Det_dsf.dual))
        (Some r.Det_dsf.ledger)
  | Det_sublinear { eps_num; eps_den } ->
      let r = Det_sublinear.run ?observer ?telemetry ~eps_num ~eps_den inst in
      of_ledger algo inst r.Det_sublinear.solution r.Det_sublinear.weight None
        (Some r.Det_sublinear.ledger)
  | Rand { repetitions; seed } ->
      let r =
        Rand_dsf.run ?observer ?telemetry ~repetitions ~jobs
          ~rng:(Dsf_util.Rng.create seed) inst
      in
      of_ledger algo inst r.Rand_dsf.solution r.Rand_dsf.weight None
        (Some r.Rand_dsf.ledger)
  | Khan_baseline { repetitions; seed } ->
      let solution, weight, ledger =
        tspan "khan_baseline" (fun () ->
            !khan_hook ~repetitions ~rng:(Dsf_util.Rng.create seed) inst)
      in
      of_ledger algo inst solution weight None (Some ledger)
  | Centralized_moat ->
      let r = tspan "centralized_moat" (fun () -> Moat.run inst) in
      of_ledger algo inst r.Moat.solution r.Moat.weight
        (Some (Frac.to_float r.Moat.dual))
        None

let solve_cr ?jobs ?observer ?telemetry ?chaos algo cr =
  let out = Transform.cr_to_ic ?observer ?telemetry ?jobs ?chaos cr in
  let report =
    solve_ic ?jobs ?observer ?telemetry ?chaos algo out.Transform.value
  in
  let ledger =
    match report.ledger with
    | Some l ->
        let merged = Ledger.create () in
        Ledger.add merged Ledger.Simulated "CR->IC transform (Lemma 2.3)"
          out.Transform.rounds;
        Ledger.merge_into ~dst:merged l;
        Some merged
    | None -> None
  in
  {
    report with
    rounds_simulated = report.rounds_simulated + out.Transform.rounds;
    ledger;
  }

let compare_all ?jobs ?observer ?telemetry ?algorithms inst =
  let algorithms =
    match algorithms with
    | Some l -> l
    | None ->
        [
          Det;
          Det_sublinear { eps_num = 1; eps_den = 2 };
          Rand { repetitions = 3; seed = 1 };
          Khan_baseline { repetitions = 3; seed = 1 };
        ]
  in
  List.map (fun a -> solve_ic ?jobs ?observer ?telemetry a inst) algorithms
  |> List.sort (fun a b -> compare a.weight b.weight)
