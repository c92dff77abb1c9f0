module Graph = Dsf_graph.Graph

(* State is a bare immediate int (0 = not sent, 1 = sent) and the payload
   placeholder is the int 0: the protocol is mail-free, and a
   node is done once it has sent. *)
let flat_protocol ~payload_bits : (int, int) Sim.flat_protocol =
  {
    fp_init = (fun _ -> 0);
    fp_step =
      (fun view ~round:_ sent ~inbox:_ ~emit ->
        if sent = 1 then 1
        else begin
          Array.iter (fun (nb, _, _) -> emit ~dst:nb 0) view.Sim.nbrs;
          1
        end);
    fp_is_done = (fun sent -> sent = 1);
    fp_msg_bits = (fun _ -> payload_bits);
  }

let all_neighbors ?(env = Sim.default_env) g ~payload_bits =
  Sim.span env "neighbor_exchange" @@ fun () ->
  ignore
    (Fault.sim_run ~env ~recovery:(Fault.immutable ()) g
       (flat_protocol ~payload_bits))
