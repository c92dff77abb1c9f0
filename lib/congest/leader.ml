module Graph = Dsf_graph.Graph
module Bitsize = Dsf_util.Bitsize

type result = {
  leader : int;
  agreed : bool;
}

type state = { best : int; dirty : bool }

let protocol g : (state, int) Sim.flat_protocol =
  let n = Graph.n g in
  {
    fp_init = (fun view -> { best = view.Sim.node; dirty = true });
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let st = ref st in
        for i = 0 to Sim.inbox_len inbox - 1 do
          let cand = Sim.inbox_msg inbox i in
          if cand > !st.best then st := { best = cand; dirty = true }
        done;
        let st = !st in
        if st.dirty then begin
          Array.iter (fun (nb, _, _) -> emit ~dst:nb st.best) view.Sim.nbrs;
          { st with dirty = false }
        end
        else st);
    fp_is_done = (fun st -> not st.dirty);
    fp_msg_bits = (fun _ -> Bitsize.id_bits ~n);
    fp_wake = Some Sim.never;
  }

let elect ?(env = Sim.default_env) g =
  let states, _ =
    Fault.sim_run ~env ~recovery:(Fault.immutable ()) g (protocol g)
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
  { leader; agreed }
