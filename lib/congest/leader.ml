module Graph = Dsf_graph.Graph
module Bitsize = Dsf_util.Bitsize

type result = {
  leader : int;
  rounds : int;
  messages : int;
  agreed : bool;
}

type state = { best : int; dirty : bool }

let protocol g : (state, int) Sim.protocol =
  let n = Graph.n g in
  {
    init = (fun view -> { best = view.Sim.node; dirty = true });
    step =
      (fun view ~round:_ st ~inbox ->
        let st =
          List.fold_left
            (fun st (_, cand) ->
              if cand > st.best then { best = cand; dirty = true } else st)
            st inbox
        in
        if st.dirty then
          ( { st with dirty = false },
            Array.to_list view.Sim.nbrs
            |> List.map (fun (nb, _, _) -> nb, st.best) )
        else st, []);
    is_done = (fun st -> not st.dirty);
    msg_bits = (fun _ -> Bitsize.id_bits ~n);
    wake = Some Sim.never;
  }

let elect ?(env = Sim.default_env) g =
  let states, stats =
    Fault.sim_run ~env ~recovery:(Fault.immutable ()) g
      (Sim.flat_of_protocol (protocol g))
  in
  (* Under raw (unhardened) crash-and-restart faults agreement can silently
     break: a node restarted after the max-id wave has passed re-floods its
     own id, its done neighbors ignore the smaller candidate and never
     reply, and the network quiesces with the restarted node stuck on a
     stale leader.  Surface that instead of asserting: [agreed] reports
     whether every node ended on the same leader.  Fault-free runs must
     agree (the assert), and so must hardened runs under any maskable plan
     — crash-restart included, since a [Chaos] network runs with
     checkpoint recovery — which the chaos suite enforces
     differentially. *)
  let leader = Array.fold_left (fun acc st -> Int.max acc st.best) min_int states in
  let agreed = Array.for_all (fun st -> st.best = leader) states in
  (match env.Sim.network with Sim.Faults _ -> () | _ -> assert agreed);
  { leader; rounds = stats.Sim.rounds; messages = stats.Sim.messages; agreed }
