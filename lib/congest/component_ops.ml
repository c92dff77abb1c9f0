module Graph = Dsf_graph.Graph

type 'a state = { best : 'a option; dirty : bool }

let gossip_extremum ?(env = Sim.default_env) g ~mask ~values ~better ~bits =
  let proto : ('a state, 'a) Sim.flat_protocol =
    {
      fp_init =
        (fun view ->
          match values view.Sim.node with
          | Some v -> { best = Some v; dirty = true }
          | None -> { best = None; dirty = false });
      fp_step =
        (fun view ~round:_ st ~inbox ~emit ->
          let st = ref st in
          for i = 0 to Sim.inbox_len inbox - 1 do
            let v = Sim.inbox_msg inbox i in
            match !st.best with
            | Some b when not (better v b) -> ()
            | _ -> st := { best = Some v; dirty = true }
          done;
          let st = !st in
          (match st.best, st.dirty with
          | Some v, true ->
              Array.iter
                (fun (nb, _, eid) -> if mask.(eid) then emit ~dst:nb v)
                view.Sim.nbrs
          | _ -> ());
          { st with dirty = false });
      fp_is_done = (fun st -> not st.dirty);
      fp_msg_bits = bits;
      fp_wake = Some Sim.never;
    }
  in
  let states, _ =
    Sim.span env "gossip_extremum" (fun () ->
        Fault.sim_run ~env ~recovery:(Fault.immutable ()) g proto)
  in
  Array.map (fun st -> st.best) states

let leaders ?(env = Sim.default_env) g ~mask =
  gossip_extremum ~env g ~mask
    ~values:(fun v -> Some v)
    ~better:(fun a b -> a > b)
    ~bits:(fun _ -> Dsf_util.Bitsize.id_bits ~n:(Graph.n g))
  |> Array.mapi (fun v best -> match best with Some l -> l | None -> v)

let component_min_item ?(env = Sim.default_env) g ~mask ~values ~cmp ~bits =
  gossip_extremum ~env g ~mask ~values
    ~better:(fun a b -> cmp a b < 0) ~bits
