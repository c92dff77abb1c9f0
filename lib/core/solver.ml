module Instance = Dsf_graph.Instance
module Ledger = Dsf_congest.Ledger
module Sim = Dsf_congest.Sim

type algorithm =
  | Det
  | Det_sublinear of { eps_num : int; eps_den : int }
  | Rand of { repetitions : int; rng : Dsf_util.Rng.t }
  | Khan_baseline of { repetitions : int; rng : Dsf_util.Rng.t }
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
  ledger : Ledger.t option;
  dual_lower_bound : float option;
}

let of_ledger algo inst solution weight dual ledger =
  {
    algorithm = name algo;
    solution;
    weight;
    feasible = Instance.is_feasible inst solution;
    ledger;
    dual_lower_bound = dual;
  }

let solve_ic ?(jobs = 1) ?telemetry ?chaos algo inst =
  (match chaos, algo with
  | Some _, (Det_sublinear _ | Rand _ | Khan_baseline _ | Centralized_moat) ->
      invalid_arg "Solver.solve_ic: ?chaos is only supported for Det"
  | _ -> ());
  match algo with
  | Det ->
      let r = Det_dsf.run ?telemetry ?chaos inst in
      of_ledger algo inst r.Det_dsf.solution r.Det_dsf.weight
        (Some (Frac.to_float r.Det_dsf.dual))
        (Some r.Det_dsf.ledger)
  | Det_sublinear { eps_num; eps_den } ->
      let r = Det_sublinear.run ?telemetry ~eps_num ~eps_den inst in
      of_ledger algo inst r.Det_sublinear.solution r.Det_sublinear.weight None
        (Some r.Det_sublinear.ledger)
  | Rand { repetitions; rng } ->
      let r = Rand_dsf.run ?telemetry ~repetitions ~jobs ~rng inst in
      of_ledger algo inst r.Rand_dsf.solution r.Rand_dsf.weight None
        (Some r.Rand_dsf.ledger)
  | Khan_baseline { repetitions; rng } ->
      let r = Khan_etal.run ?telemetry ~repetitions ~rng inst in
      of_ledger algo inst r.Khan_etal.solution r.Khan_etal.weight None
        (Some r.Khan_etal.ledger)
  | Centralized_moat ->
      let r =
        Dsf_congest.Telemetry.span_opt telemetry "centralized_moat" (fun () ->
            Moat.run inst)
      in
      of_ledger algo inst r.Moat.solution r.Moat.weight
        (Some (Frac.to_float r.Moat.dual))
        None

(* The distributed Lemma 2.3 transform under its own ledger, and a
   report whose ledger holds the transform's rounds, then the
   algorithm's. *)
let transform ?telemetry ?chaos cr =
  let network =
    Option.fold chaos ~none:Sim.Lossless ~some:(fun c -> Sim.Chaos c)
  in
  let ledger = Ledger.create () in
  let env = { Sim.default_env with telemetry; ledger = Some ledger; network } in
  ledger, Transform.cr_to_ic ~env cr

let with_transform transform_ledger report =
  let with_algo l =
    let ledger = Ledger.create () in
    Ledger.merge_into ~dst:ledger transform_ledger;
    Ledger.merge_into ~dst:ledger l;
    ledger
  in
  { report with ledger = Option.map with_algo report.ledger }

let solve_cr ?jobs ?telemetry ?chaos algo cr =
  let ledger, inst = transform ?telemetry ?chaos cr in
  with_transform ledger (solve_ic ?jobs ?telemetry ?chaos algo inst)

type input = Ic of Instance.ic | Cr of Instance.cr

let solve ?jobs ?telemetry ?chaos algo = function
  | Ic inst -> solve_ic ?jobs ?telemetry ?chaos algo inst
  | Cr cr -> solve_cr ?jobs ?telemetry ?chaos algo cr

let compare_all ?jobs ?telemetry ?algorithms input =
  let algorithms =
    match algorithms with
    | Some l -> l
    | None ->
        [
          Det;
          Det_sublinear { eps_num = 1; eps_den = 2 };
          Rand { repetitions = 3; rng = Dsf_util.Rng.create 1 };
          Khan_baseline { repetitions = 3; rng = Dsf_util.Rng.create 1 };
        ]
  in
  (* On requests the transform runs once; every report gets its rounds. *)
  let solve_each =
    match input with
    | Ic inst -> fun a -> solve_ic ?jobs ?telemetry a inst
    | Cr cr ->
        let ledger, inst = transform ?telemetry cr in
        fun a -> with_transform ledger (solve_ic ?jobs ?telemetry a inst)
  in
  List.map solve_each algorithms
  |> List.sort (fun a b -> compare a.weight b.weight)
