module Graph = Dsf_graph.Graph

let protocol ~payload_bits : (bool, unit) Sim.protocol =
  {
    init = (fun _ -> false);
    step =
      (fun view ~round:_ sent ~inbox:_ ->
        if sent then true, []
        else
          ( true,
            Array.to_list view.Sim.nbrs
            |> List.map (fun (nb, _, _) -> nb, ()) ));
    is_done = Fun.id;
    msg_bits = (fun () -> payload_bits);
    wake = Some Sim.never;
  }

(* Native flat-engine port: state is a bare immediate int (0 = not sent,
   1 = sent), the payload placeholder is the int 0, and everything else is
   the classic protocol verbatim — it was already mail-free and
   wake-never. *)
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
    fp_wake = Some Sim.never;
  }

let all_neighbors ?observer ?faults ?telemetry ?jobs ?chaos g
    ~payload_bits =
  if Option.is_none chaos && Sim.native_ports () then
    let _, stats =
      Telemetry.span_opt telemetry "neighbor_exchange" (fun () ->
          Sim.run_flat ?observer ?faults ?telemetry ?jobs g
            (flat_protocol ~payload_bits))
    in
    stats
  else
    let _, stats =
      Telemetry.span_opt telemetry "neighbor_exchange" (fun () ->
          Fault.sim_run ?observer ?faults ?telemetry ?jobs ?chaos
            ~recovery:(Fault.immutable ()) g (protocol ~payload_bits))
    in
    stats
