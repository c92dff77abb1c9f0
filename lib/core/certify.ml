module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance

type report = {
  feasible : bool;
  forest : bool;
  minimal : bool;
  weight : int;
  dual : float option;
  certified_ratio : float option;
}

let check ?dual inst ~solution =
  let g = inst.Instance.graph in
  if Array.length solution <> Graph.m g then Error "solution size mismatch"
  else begin
    let feasible = Instance.is_feasible inst solution in
    if not feasible then Error "infeasible: some input component is disconnected"
    else begin
      let weight = Instance.solution_weight inst solution in
      let forest = Instance.is_forest g solution in
      let minimal =
        forest
        && Array.for_all2 Bool.equal solution (Instance.prune inst solution)
      in
      match dual with
      | Some d when d > float_of_int weight +. 1e-6 ->
          Error
            (Printf.sprintf
               "inconsistent certificate: dual %.2f exceeds solution weight %d"
               d weight)
      | Some d when d < 0. -> Error "negative dual"
      | _ ->
          let certified_ratio =
            match dual with
            | Some d when d > 0. -> Some (float_of_int weight /. d)
            | _ -> None
          in
          Ok { feasible; forest; minimal; weight; dual; certified_ratio }
    end
  end

let pp ppf r =
  Format.fprintf ppf
    "feasible=%b forest=%b minimal=%b weight=%d%a" r.feasible r.forest
    r.minimal r.weight
    (fun ppf () ->
      match r.dual, r.certified_ratio with
      | Some d, Some c ->
          Format.fprintf ppf " dual=%.2f (weight <= %.2f x OPT, proven)" d c
      | Some d, None -> Format.fprintf ppf " dual=%.2f" d
      | None, _ -> ())
    ()
