module Graph = Dsf_graph.Graph

type 'a state = { best : 'a option; dirty : bool }

let gossip_extremum ?(env = Sim.default_env) g ~mask ~values ~better ~bits =
  let proto : ('a state, 'a) Sim.protocol =
    {
      init =
        (fun view ->
          match values view.Sim.node with
          | Some v -> { best = Some v; dirty = true }
          | None -> { best = None; dirty = false });
      step =
        (fun view ~round:_ st ~inbox ->
          let st =
            List.fold_left
              (fun st (_, v) ->
                match st.best with
                | Some b when not (better v b) -> st
                | _ -> { best = Some v; dirty = true })
              st inbox
          in
          match st.best, st.dirty with
          | Some v, true ->
              let outbox =
                Array.to_list view.Sim.nbrs
                |> List.filter_map (fun (nb, _, eid) ->
                       if mask.(eid) then Some (nb, v) else None)
              in
              { st with dirty = false }, outbox
          | _ -> { st with dirty = false }, []);
      is_done = (fun st -> not st.dirty);
      msg_bits = bits;
      wake = Some Sim.never;
    }
  in
  let states, stats =
    Sim.span env "gossip_extremum" (fun () -> Sim.run ~env g proto)
  in
  Array.map (fun st -> st.best) states, stats

let leaders ?(env = Sim.default_env) g ~mask =
  let results, stats =
    gossip_extremum ~env g ~mask
      ~values:(fun v -> Some v)
      ~better:(fun a b -> a > b)
      ~bits:(fun _ -> Dsf_util.Bitsize.id_bits ~n:(Graph.n g))
  in
  ( Array.mapi
      (fun v best -> match best with Some l -> l | None -> v)
      results,
    stats )

let component_min_item ?(env = Sim.default_env) g ~mask ~values ~cmp ~bits =
  gossip_extremum ~env g ~mask ~values
    ~better:(fun a b -> cmp a b < 0) ~bits
